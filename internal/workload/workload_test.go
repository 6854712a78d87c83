package workload

import (
	"testing"

	"senss/internal/machine"
)

func testConfig(procs int, mode machine.SecurityMode) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Procs = procs
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 64 << 10
	cfg.CPU.CodeBytes = 2 << 10
	cfg.Security.Mode = mode
	return cfg
}

// runWorkload builds, runs, and validates one workload on one config.
func runWorkload(t *testing.T, name string, procs int, mode machine.SecurityMode) {
	t.Helper()
	w, err := New(name, SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(procs, mode)
	if mode == machine.SecurityBusMem {
		cfg.Security.Integrity = true
	}
	m := machine.New(cfg)
	progs := w.Setup(m, procs)
	run, err := m.Run(progs)
	if err != nil {
		t.Fatalf("%s/%dP/%s: %v", name, procs, mode, err)
	}
	if halted, why := m.Halted(); halted {
		t.Fatalf("%s/%dP/%s: false alarm: %s", name, procs, mode, why)
	}
	if err := w.Validate(m); err != nil {
		t.Fatalf("%s/%dP/%s: %v", name, procs, mode, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%s/%dP/%s: invariants: %v", name, procs, mode, err)
	}
	if run.Cycles == 0 {
		t.Fatalf("%s: zero cycles", name)
	}
}

func TestWorkloadsBaseline(t *testing.T) {
	for _, name := range AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runWorkload(t, name, 4, machine.SecurityOff)
		})
	}
}

func TestWorkloadsUnderSENSS(t *testing.T) {
	for _, name := range AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runWorkload(t, name, 4, machine.SecurityBus)
		})
	}
}

func TestWorkloadsUnderFullProtection(t *testing.T) {
	for _, name := range AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runWorkload(t, name, 2, machine.SecurityBusMem)
			runWorkload(t, name, 4, machine.SecurityBusMem)
		})
	}
}

func TestWorkloadsTwoProcs(t *testing.T) {
	for _, name := range PaperSuite() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runWorkload(t, name, 2, machine.SecurityOff)
		})
	}
}

func TestWorkloadsSingleProc(t *testing.T) {
	// Degenerate single-processor runs must still validate (no deadlocks
	// in barriers sized for 1).
	for _, name := range []string{"fft", "radix", "lu", "ocean", "barnes"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runWorkload(t, name, 1, machine.SecurityOff)
		})
	}
}

// TestWorkloadsBenchScale validates every kernel at the larger problem
// size used by the figure harness (guarded for speed).
func TestWorkloadsBenchScale(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale validation in short mode")
	}
	for _, name := range PaperSuite() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := New(name, SizeBench)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(4, machine.SecurityOff)
			cfg.Coherence.L2Size = 256 << 10
			m := machine.New(cfg)
			progs := w.Setup(m, 4)
			if _, err := m.Run(progs); err != nil {
				t.Fatal(err)
			}
			if err := w.Validate(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := New("nope", SizeTest); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestChunkCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 100} {
		for procs := 1; procs <= 5; procs++ {
			covered := make([]bool, n)
			for tid := 0; tid < procs; tid++ {
				lo, hi := chunk(n, procs, tid)
				for i := lo; i < hi; i++ {
					if covered[i] {
						t.Fatalf("n=%d procs=%d: index %d covered twice", n, procs, i)
					}
					covered[i] = true
				}
			}
			for i, c := range covered {
				if !c {
					t.Fatalf("n=%d procs=%d: index %d uncovered", n, procs, i)
				}
			}
		}
	}
}

// TestWorkloadCacheToCacheTraffic asserts every paper workload actually
// generates cache-to-cache transfers at 4P — the traffic SENSS protects.
func TestWorkloadCacheToCacheTraffic(t *testing.T) {
	for _, name := range PaperSuite() {
		w, err := New(name, SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(testConfig(4, machine.SecurityOff))
		progs := w.Setup(m, 4)
		run, err := m.Run(progs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if run.C2C == 0 {
			t.Errorf("%s: no cache-to-cache transfers at 4P", name)
		}
	}
}
