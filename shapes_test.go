package senss

// Shape regression tests: the paper's qualitative claims, pinned with
// small fast runs so `go test` guards them. EXPERIMENTS.md records the
// full-sweep numbers; these tests keep the *orderings* from regressing.

import (
	"os"
	"testing"

	"senss/internal/core"
	"senss/internal/machine"
	"senss/internal/stats"
)

func shapeConfig() Config {
	cfg := machine.DefaultConfig()
	cfg.Procs = 4
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 64 << 10
	cfg.CPU.CodeBytes = 2 << 10
	// SENSS_ORACLE=1 runs every shape test in lockstep with the
	// differential oracle (internal/oracle). The oracle charges zero bus
	// cycles, so the pinned orderings are unaffected; a divergence halts
	// the machine, which driver.Run turns into the error shapeRun fatals
	// on. `make oracle` sets the guard.
	if os.Getenv("SENSS_ORACLE") != "" {
		cfg.Oracle = true
	}
	return cfg
}

func shapeRun(t *testing.T, name string, cfg Config) Run {
	t.Helper()
	run, err := RunWorkload(name, SizeTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func shapePair(t *testing.T, name string, cfg Config) (Run, Run) {
	t.Helper()
	base := cfg
	base.Security.Mode = SecurityOff
	return shapeRun(t, name, base), shapeRun(t, name, cfg)
}

// TestShapeFig7MaskOrdering: fewer masks never run faster, 4 banks ≈
// perfect (the paper's §7.4 finding), 1 bank clearly slower.
func TestShapeFig7MaskOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	cycles := map[string]uint64{}
	for _, pt := range []struct {
		label   string
		masks   int
		perfect bool
	}{{"perfect", 8, true}, {"m4", 4, false}, {"m2", 2, false}, {"m1", 1, false}} {
		cfg := shapeConfig()
		cfg.Security.Mode = SecurityBus
		cfg.Security.Senss.Masks = pt.masks
		cfg.Security.Senss.Perfect = pt.perfect
		cfg.Security.Senss.AuthInterval = 100
		cycles[pt.label] = shapeRun(t, "radix", cfg).Cycles
	}
	if cycles["m4"] != cycles["perfect"] {
		// The paper: "using 4 masks is as good as the perfect case". With
		// an 80-cycle AES and ≥40-cycle back-to-back transfer spacing, 4
		// banks fully hide the refresh; allow a whisker of tolerance.
		diff := float64(cycles["m4"])/float64(cycles["perfect"]) - 1
		if diff > 0.002 {
			t.Errorf("4 masks measurably worse than perfect: %v vs %v", cycles["m4"], cycles["perfect"])
		}
	}
	if cycles["m2"] < cycles["m4"] {
		t.Errorf("2 masks faster than 4: %v < %v", cycles["m2"], cycles["m4"])
	}
	if cycles["m1"] <= cycles["m2"] {
		t.Errorf("1 mask not slower than 2: %v <= %v", cycles["m1"], cycles["m2"])
	}
}

// TestShapeFig10IntegratedCostsMore: full protection must cost more than
// bus-only in both metrics, with hash work present.
func TestShapeFig10IntegratedCostsMore(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	busCfg := shapeConfig()
	busCfg.Security.Mode = SecurityBus
	busCfg.Security.Senss.Perfect = true
	busCfg.Security.Senss.AuthInterval = 100
	base, busRun := shapePair(t, "radix", busCfg)

	fullCfg := busCfg
	fullCfg.Security.Mode = SecurityBusMem
	fullCfg.Security.Integrity = true
	fullRun := shapeRun(t, "radix", fullCfg)

	if fullRun.Cycles <= busRun.Cycles {
		t.Errorf("integrated (%d cycles) not slower than bus-only (%d)", fullRun.Cycles, busRun.Cycles)
	}
	if fullRun.BusTotal <= busRun.BusTotal {
		t.Errorf("integrated traffic (%d) not above bus-only (%d)", fullRun.BusTotal, busRun.BusTotal)
	}
	if fullRun.HashOps == 0 {
		t.Error("integrated run did no hashing")
	}
	if s := stats.SlowdownPct(base, fullRun); s < stats.SlowdownPct(base, busRun) {
		t.Error("integrated slowdown below bus-only slowdown")
	}
}

// TestShapeTrafficSmallAtInterval100: the Figure 8 claim — bus-activity
// increase well under a few percent at the default interval.
func TestShapeTrafficSmallAtInterval100(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	for _, name := range []string{"radix", "ocean"} {
		cfg := shapeConfig()
		cfg.Security.Mode = SecurityBus
		cfg.Security.Senss.Perfect = true
		cfg.Security.Senss.AuthInterval = 100
		base, sec := shapePair(t, name, cfg)
		if tr := stats.TrafficIncreasePct(base, sec); tr > 3 {
			t.Errorf("%s: traffic increase %.2f%% exceeds the Figure 8 regime", name, tr)
		}
	}
}

// TestShapeInterval1BoundedByC2CShare: Figure 9's explanation — per-
// transfer authentication adds one message per cache-to-cache transfer,
// so the traffic increase approximates the base run's c2c share.
func TestShapeInterval1BoundedByC2CShare(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	cfg := shapeConfig()
	cfg.Security.Mode = SecurityBus
	cfg.Security.Senss.Perfect = true
	cfg.Security.Senss.AuthInterval = 1
	base, sec := shapePair(t, "radix", cfg)
	tr := stats.TrafficIncreasePct(base, sec) / 100
	share := base.C2CShare()
	// One auth per c2c transfer: increase ≈ share/(1) with slack for the
	// second-order timing shifts.
	if tr < share*0.5 || tr > share*1.5 {
		t.Errorf("interval-1 traffic increase %.3f not within 50%% of c2c share %.3f", tr, share)
	}
}

// TestShapeGFModeBeatsCBCUnderMaskScarcity: the §4.3 GCM-style extension
// eliminates mask stalls, so with one bank it must outperform CBC.
func TestShapeGFModeBeatsCBCUnderMaskScarcity(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	run := func(mode core.AuthMode) Run {
		cfg := shapeConfig()
		cfg.Security.Mode = SecurityBus
		cfg.Security.Senss.AuthMode = mode
		cfg.Security.Senss.Perfect = false
		cfg.Security.Senss.Masks = 1
		cfg.Security.Senss.AuthInterval = 100
		_, r := runMachine(t, "radix", cfg, nil) // also checks coherence invariants
		return r
	}
	cbc := run(core.AuthCBC)
	gf := run(core.AuthGF)
	if gf.MaskStalls != 0 {
		t.Errorf("GF mode stalled %d cycles", gf.MaskStalls)
	}
	if cbc.MaskStalls == 0 {
		t.Error("CBC with one bank never stalled (the comparison is vacuous)")
	}
	if gf.Cycles >= cbc.Cycles {
		t.Errorf("GF (%d cycles) not faster than stalling CBC (%d)", gf.Cycles, cbc.Cycles)
	}
}

// TestShapeSlowdownGrowsWithProcessors: the Figure 6 observation — more
// processors means more cache-to-cache transfers, hence more SENSS cost.
func TestShapeSlowdownGrowsWithProcessors(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	slow := func(procs int) float64 {
		cfg := shapeConfig()
		cfg.Procs = procs
		cfg.Security.Mode = SecurityBus
		cfg.Security.Senss.Perfect = true
		cfg.Security.Senss.AuthInterval = 100
		base, sec := shapePair(t, "fft", cfg)
		return stats.SlowdownPct(base, sec)
	}
	s2, s4 := slow(2), slow(4)
	if s4 < s2*0.8 {
		// Allow variability headroom, but 4P should not be clearly cheaper.
		t.Errorf("slowdown shrank with more processors: 2P %.2f%% vs 4P %.2f%%", s2, s4)
	}
}
