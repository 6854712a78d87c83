package driver_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"senss/internal/driver"
	"senss/internal/machine"
	"senss/internal/workload"
)

// smallCfg returns a cheap secured machine (the bench-sim geometry).
func smallCfg() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Procs = 2
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 64 << 10
	cfg.CPU.CodeBytes = 2 << 10
	cfg.Security.Mode = machine.SecurityBus
	return cfg
}

func TestRunUnknownWorkload(t *testing.T) {
	_, err := driver.Run("no-such-kernel", workload.SizeTest, smallCfg())
	if err == nil || !strings.Contains(err.Error(), `unknown "no-such-kernel"`) {
		t.Fatalf("err = %v, want unknown-workload error", err)
	}
}

// TestRunInvalidConfig pins that configuration mistakes surface as
// errors from the driver, not as machine.New panics: a serving layer
// must be able to reject a bad request without crashing.
func TestRunInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*machine.Config)
		want string
	}{
		{"zero procs", func(c *machine.Config) { c.Procs = 0 }, "Procs"},
		{"line mismatch", func(c *machine.Config) { c.Coherence.L2Line = 48 }, "multiple"},
		{"bad mask banks", func(c *machine.Config) { c.Security.Senss.Masks = 3 }, "mask banks"},
		{"unknown backend", func(c *machine.Config) { c.Security.Senss.Backend = "quantum" }, "crypto backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			tc.mod(&cfg)
			_, err := driver.Run("fft", workload.SizeTest, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "invalid config") {
				t.Errorf("err = %v, want the invalid-config wrapper", err)
			}
		})
	}
}

func TestCompareUnknownWorkload(t *testing.T) {
	_, _, err := driver.Compare("bogus", workload.SizeTest, smallCfg())
	if err == nil || !strings.Contains(err.Error(), `unknown "bogus"`) {
		t.Fatalf("err = %v, want unknown-workload error", err)
	}
}

// TestCompareInvalidBackend exercises Compare's config-rejection path:
// Compare validates cfg before the baseline leg, so no simulation ever
// starts.
func TestCompareInvalidBackend(t *testing.T) {
	cfg := smallCfg()
	cfg.Security.Senss.Backend = "quantum"
	base, secure, err := driver.Compare("fft", workload.SizeTest, cfg)
	if err == nil || !strings.Contains(err.Error(), "crypto backend") {
		t.Fatalf("err = %v, want unknown-backend error", err)
	}
	if base.Cycles != 0 || secure.Cycles != 0 {
		t.Errorf("got measurements (%d, %d cycles) from a rejected config", base.Cycles, secure.Cycles)
	}
}

// TestCompareMatchesRunWorkload pins Compare's happy path against two
// direct Runs.
func TestCompareMatchesRunWorkload(t *testing.T) {
	cfg := smallCfg()
	base, secure, err := driver.Compare("lockcontend", workload.SizeTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBase, err := driver.Run("lockcontend", workload.SizeTest, cfg.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	wantSec, err := driver.Run("lockcontend", workload.SizeTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, wantBase) || !reflect.DeepEqual(secure, wantSec) {
		t.Error("Compare diverged from direct Runs")
	}
}

func TestNewSessionErrors(t *testing.T) {
	if _, err := driver.NewSession("nope", workload.SizeTest, smallCfg()); err == nil {
		t.Error("unknown workload accepted")
	}
	cfg := smallCfg()
	cfg.Procs = -1
	if _, err := driver.NewSession("fft", workload.SizeTest, cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestSessionSteppedMatchesRun is the core determinism contract of the
// serving layer: a session advanced in small slices finishes with
// measurements deeply equal to the monolithic driver.Run of the same
// config, for both secured modes.
func TestSessionSteppedMatchesRun(t *testing.T) {
	for _, mode := range []machine.SecurityMode{machine.SecurityOff, machine.SecurityBus} {
		cfg := smallCfg()
		cfg.Security.Mode = mode
		want, err := driver.Run("falseshare", workload.SizeTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := driver.NewSession("falseshare", workload.SizeTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		var lastCycles uint64
		for {
			done, err := s.Step(1000)
			if err != nil {
				t.Fatal(err)
			}
			if c := s.Cycles(); c < lastCycles {
				t.Fatalf("cycles went backwards: %d -> %d", lastCycles, c)
			} else {
				lastCycles = c
			}
			steps++
			if done {
				break
			}
			if snap := s.Snapshot(); snap.Workload != "falseshare" {
				t.Fatalf("snapshot workload = %q", snap.Workload)
			}
		}
		if steps < 5 {
			t.Fatalf("run completed in %d slices; slice too coarse to exercise stepping", steps)
		}
		got, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mode %s: stepped result diverged from driver.Run:\n got %+v\nwant %+v", mode, got, want)
		}
		if snap := s.Snapshot(); !reflect.DeepEqual(snap, want) {
			t.Errorf("mode %s: finished Snapshot diverged from Result", mode)
		}
		s.Close() // post-completion close is a clean shutdown
	}
}

func TestSessionResultBeforeDone(t *testing.T) {
	s, err := driver.NewSession("fft", workload.SizeTest, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Result(); err == nil || !strings.Contains(err.Error(), "still running") {
		t.Fatalf("Result before completion: err = %v", err)
	}
}

// TestSessionCloseMidRun aborts a half-finished simulation and checks
// the session degrades gracefully: closed-session Steps are no-ops, the
// snapshot stays readable, and the verdict says the run never finished.
func TestSessionCloseMidRun(t *testing.T) {
	s, err := driver.NewSession("ocean", workload.SizeTest, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := s.Step(500); done {
		t.Fatal("finished within the first 500 cycles; pick a longer workload")
	}
	s.Close()
	s.Close() // idempotent
	if !s.Done() {
		t.Error("closed session not done")
	}
	if _, err := s.Result(); err == nil || !strings.Contains(err.Error(), "closed at cycle") {
		t.Errorf("Result after mid-run close: err = %v", err)
	}
	if done, _ := s.Step(math.MaxUint64); !done {
		t.Error("Step after Close claims the run continues")
	}
	if snap := s.Snapshot(); snap.Workload != "ocean" {
		t.Errorf("snapshot lost after close: %+v", snap)
	}
}

// TestSessionRunHonorsContext cancels mid-run and then resumes the same
// session to completion, pinning that cancellation pauses rather than
// poisons.
func TestSessionRunHonorsContext(t *testing.T) {
	cfg := smallCfg()
	want, err := driver.Run("ocean", workload.SizeTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := driver.NewSession("ocean", workload.SizeTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, 1000); err == nil {
		t.Fatal("cancelled Run returned nil error")
	}
	if s.Done() {
		t.Fatal("cancellation finished the session")
	}
	got, err := s.Run(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resumed-after-cancel result diverged from driver.Run")
	}
}
