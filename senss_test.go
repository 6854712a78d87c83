package senss

import (
	"fmt"
	"strings"
	"testing"
)

func TestRunWorkloadBaseline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 32 << 10
	run, err := RunWorkload("radix", SizeTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Cycles == 0 || run.Workload != "radix" {
		t.Errorf("bad run record: %+v", run)
	}
}

func TestCompareProducesOverhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 32 << 10
	cfg.Security.Mode = SecurityBus
	cfg.Security.Senss.AuthInterval = 10
	base, sec, err := Compare("lockcontend", SizeTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sec.Cycles < base.Cycles {
		t.Errorf("secure faster than base: %d < %d", sec.Cycles, base.Cycles)
	}
	if sec.AuthMsgs == 0 {
		t.Error("no auth messages in secure run")
	}
	if s := SlowdownPct(base, sec); s < 0 {
		t.Errorf("negative slowdown %.2f%% without perturbation", s)
	}
	if tr := TrafficIncreasePct(base, sec); tr <= 0 {
		t.Errorf("no traffic increase: %.2f%%", tr)
	}
}

func TestRunWorkloadUnknownName(t *testing.T) {
	if _, err := RunWorkload("bogus", SizeTest, DefaultConfig()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestHarnessFigureUnknown(t *testing.T) {
	h := NewHarness(SizeTest)
	if _, err := h.Figure("5"); err == nil {
		t.Error("figure 5 is a config table, not an experiment")
	}
}

// TestFigure9Shape runs the smallest real figure sweep and checks the
// paper's qualitative shape: shorter authentication intervals cost more
// bus traffic, with interval 1 the maximum.
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in short mode")
	}
	h := NewHarness(SizeTest)
	h.Workloads = []string{"radix", "ocean"} // keep the test quick
	fig, err := h.Figure("9")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := fig.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	traffic := tables[1]
	avg := traffic.Rows[len(traffic.Rows)-1]
	var vals []float64
	for _, cell := range avg[1:] {
		var v float64
		if _, err := fmt.Sscanf(cell, "%f", &v); err != nil {
			t.Fatalf("parse %q: %v", cell, err)
		}
		vals = append(vals, v)
	}
	// interval 100 ≤ 32 ≤ 10 ≤ 1 in traffic increase.
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1]-1e-9 {
			t.Errorf("traffic increase not monotone in auth frequency: %v", vals)
		}
	}
	if vals[len(vals)-1] <= vals[0] {
		t.Errorf("per-transfer auth (%v%%) should cost clearly more than interval 100 (%v%%)", vals[3], vals[0])
	}
	out := traffic.Render()
	if !strings.Contains(out, "Figure 9b") {
		t.Error("table title missing")
	}
}
