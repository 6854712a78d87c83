package senss

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"senss/internal/bus"
	"senss/internal/crypto"
	"senss/internal/integrity"
	"senss/internal/machine"
	"senss/internal/sim"
	"senss/internal/stats"
)

// goldenCyclesFile pins the complete measurement table — total cycles,
// retired-op counts, and every stat the simulator reports — for all five
// SPLASH2 kernels plus the false-sharing micro, under the unprotected
// baseline and under both secured modes with both crypto backends. It is
// the conformance contract for engine rewrites: any scheduler, cache, or
// bus optimization must reproduce these tables byte-for-byte.
const goldenCyclesFile = "testdata/golden_cycles.json"

// goldenWorkloads is the conformance surface: the paper's five SPLASH2
// kernels plus the false-sharing micro-benchmark.
var goldenWorkloads = []string{"fft", "radix", "barnes", "lu", "ocean", "falseshare"}

// goldenVariants crosses both secured modes with both crypto backends,
// plus the unprotected baseline (backend-independent, recorded once).
var goldenVariants = []struct {
	label   string
	mode    machine.SecurityMode
	backend string
}{
	{"base", machine.SecurityOff, ""},
	{"senss/ref", machine.SecurityBus, crypto.Ref},
	{"senss/stdlib", machine.SecurityBus, crypto.Stdlib},
	{"senss+mem/ref", machine.SecurityBusMem, crypto.Ref},
	{"senss+mem/stdlib", machine.SecurityBusMem, crypto.Stdlib},
}

// goldenConfig is the canonical conformance geometry: a scaled-down
// 4-processor machine with the lockstep differential oracle attached, so
// every recorded run is also oracle-clean.
func goldenConfig(mode machine.SecurityMode, backend string) Config {
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 64 << 10
	cfg.CPU.CodeBytes = 2 << 10
	cfg.Security.Mode = mode
	cfg.Security.Senss.Backend = backend
	cfg.Security.Senss.Perfect = true
	cfg.Security.Senss.AuthInterval = 100
	if mode == machine.SecurityBusMem {
		cfg.Security.Integrity = true
	}
	cfg.Oracle = true
	return cfg
}

// goldenKey names one record in the golden table.
func goldenKey(workload, variant string) string { return workload + "/" + variant }

// runGolden executes one conformance cell and asserts the run-level
// invariants that make the recorded table trustworthy: no simulation
// error, no security halt, workload-validated, and oracle-clean.
func runGolden(t *testing.T, name string, cfg Config) stats.Run {
	t.Helper()
	run, err := RunWorkload(name, SizeTest, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if run.Halted {
		t.Fatalf("%s: halted: %s", name, run.HaltReason)
	}
	return run
}

// runMachine runs one workload at test size on a machine built from cfg,
// after attach (when non-nil) has wired extra observers into it. It fails
// on a simulation error, a halt, a wrong result or a broken coherence
// invariant, and returns the machine for further inspection.
func runMachine(t *testing.T, name string, cfg Config, attach func(*Machine)) (*Machine, Run) {
	t.Helper()
	w, err := NewWorkload(name, SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cfg)
	if attach != nil {
		attach(m)
	}
	run, err := m.Run(w.Setup(m, cfg.Procs))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if halted, why := m.Halted(); halted {
		t.Fatalf("%s: halted: %s", name, why)
	}
	if err := w.Validate(m); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", name, err)
	}
	return m, run
}

// TestGoldenConformance byte-compares the full stats table of every
// workload × variant cell against testdata/golden_cycles.json. Regenerate
// with SENSS_UPDATE_GOLDEN=1 go test -run TestGoldenConformance — but only
// when the timing model changed on purpose; document why in EXPERIMENTS.md.
func TestGoldenConformance(t *testing.T) {
	update := os.Getenv("SENSS_UPDATE_GOLDEN") != ""

	got := make(map[string]stats.Run, len(goldenWorkloads)*len(goldenVariants))
	for _, name := range goldenWorkloads {
		for _, v := range goldenVariants {
			key := goldenKey(name, v.label)
			t.Run(key, func(t *testing.T) {
				run := runGolden(t, name, goldenConfig(v.mode, v.backend))
				if v.mode != machine.SecurityOff && run.AuthMsgs == 0 {
					t.Errorf("secured run reports no authentication traffic")
				}
				if run.Loads == 0 || run.Stores == 0 {
					t.Errorf("implausible retired-op counts: loads=%d stores=%d", run.Loads, run.Stores)
				}
				got[key] = run
			})
		}
	}
	if t.Failed() {
		t.FailNow() // a failed cell must not be recorded or compared
	}

	if update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenCyclesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCyclesFile, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d golden runs to %s", len(got), goldenCyclesFile)
		return
	}

	raw, err := os.ReadFile(goldenCyclesFile)
	if err != nil {
		t.Fatalf("missing golden table (generate with SENSS_UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt %s: %v", goldenCyclesFile, err)
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		wantRaw, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from golden table — regenerate it", k)
			continue
		}
		gotJSON, err := json.Marshal(got[k])
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, wantRaw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, compact.Bytes()) {
			t.Errorf("%s: stats table diverged from golden record\n got: %s\nwant: %s",
				k, gotJSON, compact.Bytes())
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: stale golden record with no matching run", k)
		}
	}
	if len(keys) != len(goldenWorkloads)*len(goldenVariants) {
		t.Errorf("conformance surface shrank: %d cells, want %d",
			len(keys), len(goldenWorkloads)*len(goldenVariants))
	}
	// Spot-check the two backends agree cycle-for-cycle: the crypto
	// backend changes host speed, never simulated timing.
	for _, name := range goldenWorkloads {
		for _, mode := range []string{"senss", "senss+mem"} {
			ref := got[goldenKey(name, mode+"/ref")]
			std := got[goldenKey(name, mode+"/stdlib")]
			if ref.Cycles != std.Cycles {
				t.Errorf("%s/%s: backend changed simulated timing: ref=%d stdlib=%d cycles",
					name, mode, ref.Cycles, std.Cycles)
			}
		}
	}
}

// TestGoldenSpinResumes pins the host cost that cpu.Port.SpinUntil
// removes. Barrier spin probes are over 40% of the retired memory ops of
// the radix and barnes golden cells; run in engine context, they resume
// no coroutine, and the engine resumes a proc 0.19 to 0.32 times per op
// (1.03 to 1.30 per op when every probe resumed the spinning proc).
func TestGoldenSpinResumes(t *testing.T) {
	checkGoldenResumes(t, []string{"radix", "barnes"}, 0.5)
}

// TestGoldenBatchResumes pins the host cost that cpu.Port's batches
// remove. ocean, fft and lu read their operands through LoadN and queue
// their stores, so a batch of L1 and L2 hits resumes its proc once: 0.22,
// 0.20 and 0.26 resumes per op on the base cells, against 0.92, 0.83 and
// 0.58 when every op resumed the proc.
func TestGoldenBatchResumes(t *testing.T) {
	checkGoldenResumes(t, []string{"ocean", "fft", "lu"}, 0.3)
}

// TestGoldenBusResumes pins the host cost that bus.Transact's tenure
// continuation removes. falseshare's procs spend their time on the bus;
// with the release and the latency tail taken in engine context it
// resumes 1.07 to 1.19 times per op, against 2.09 to 2.48 when the proc
// slept each leg of the tenure itself.
func TestGoldenBusResumes(t *testing.T) {
	checkGoldenResumes(t, []string{"falseshare"}, 1.5)
}

// checkGoldenResumes requires fewer than bound coroutine resumes per
// retired memory op on every golden variant of the named kernels.
func checkGoldenResumes(t *testing.T, names []string, bound float64) {
	for _, name := range names {
		for _, v := range goldenVariants {
			t.Run(goldenKey(name, v.label), func(t *testing.T) {
				m, run := runMachine(t, name, goldenConfig(v.mode, v.backend), nil)
				ops := run.Loads + run.Stores + run.RMWs
				if perOp := float64(m.Engine.Resumes()) / float64(ops); perOp >= bound {
					t.Errorf("%d resumes for %d ops: %.2f per op, want under %.1f", m.Engine.Resumes(), ops, perOp, bound)
				}
			})
		}
	}
}

// TestGoldenConformanceOracleClean re-runs one secured cell per backend and
// asserts the differential oracle saw traffic and stayed clean; runGolden
// would have surfaced a divergence halt, this pins the plumbing.
func TestGoldenConformanceOracleClean(t *testing.T) {
	for _, backend := range []string{crypto.Ref, crypto.Stdlib} {
		m, _ := runMachine(t, "falseshare", goldenConfig(machine.SecurityBus, backend), nil)
		if m.Oracle.Diverged() {
			t.Fatalf("%s: oracle diverged: %s", backend, m.Oracle.Report().Divergence)
		}
		if m.Oracle.Checked() == 0 {
			t.Fatalf("%s: oracle observed no transactions", backend)
		}
	}
}

// memoryHashFetches is a bus hook charging zero cycles that counts
// hash-tree lines supplied by memory, independently of the memory port
// that fills stats.Run.HashFetches.
type memoryHashFetches uint64

func (n *memoryHashFetches) OnTransaction(_ *sim.Proc, t *bus.Transaction) uint64 {
	if (t.Kind == bus.Rd || t.Kind == bus.RdX) && t.SupplierID == bus.MemorySupplier && t.Addr >= integrity.HashBase {
		*n++
	}
	return 0
}

// TestGoldenHashFetchesMatchBus checks HashFetches on every senss+mem
// golden cell against the bus hook's count. The paper kernels' trees
// outgrow the lines Load warms into every L2, so memory supplies some of
// their hash lines; falseshare's whole tree is warmed, so it fetches none.
func TestGoldenHashFetchesMatchBus(t *testing.T) {
	for _, name := range goldenWorkloads {
		for _, v := range goldenVariants {
			if v.mode != machine.SecurityBusMem {
				continue
			}
			var seen memoryHashFetches
			_, run := runMachine(t, name, goldenConfig(v.mode, v.backend), func(m *Machine) {
				m.Bus.AttachHook(&seen)
			})
			if run.HashFetches != uint64(seen) {
				t.Errorf("%s/%s: HashFetches = %d, bus saw %d memory-supplied hash lines",
					name, v.label, run.HashFetches, seen)
			}
			if run.HashFetches == 0 && slices.Contains(PaperSuite(), name) {
				t.Errorf("%s/%s: no hash-tree line fetched from memory", name, v.label)
			}
		}
	}
}
