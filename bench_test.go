package senss

// One benchmark per table/figure of the paper's evaluation (§7). Each
// bench runs the corresponding experiment at test scale and reports the
// paper's metric via b.ReportMetric:
//
//	Figure 6  — slowdown_pct per workload (SENSS, auth interval 100)
//	Figure 7  — slowdown_pct and mask_stall_cycles per mask-bank count
//	Figure 8  — traffic_pct per workload
//	Figure 9  — slowdown_pct / traffic_pct per authentication interval
//	Figure 10 — slowdown_pct / traffic_pct for the integrated system
//	Figure 11 — cycle spread under timing perturbation (§7.8)
//	Table 1   — the bus-encryption datapath itself (protocol throughput)
//
// cmd/senss-tables regenerates the full tables; these benches make every
// experiment reproducible through `go test -bench`.

import (
	"testing"

	"senss/internal/core"
	"senss/internal/crypto/aes"
	"senss/internal/rng"
	"senss/internal/stats"
	"senss/internal/workload"
)

// benchConfig is the benchmark machine with an l2-byte L2.
func benchConfig(procs int, l2 int) Config {
	cfg := BenchConfig(procs)
	cfg.Coherence.L2Size = l2
	return cfg
}

func mustRun(b *testing.B, name string, cfg Config) Run {
	b.Helper()
	run, err := RunWorkload(name, SizeTest, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// comparePair runs base + secure once and reports the paper metrics.
func comparePair(b *testing.B, name string, secure Config) (Run, Run) {
	b.Helper()
	return mustRun(b, name, secure.Baseline()), mustRun(b, name, secure)
}

// BenchmarkFig6_Slowdown reproduces Figure 6: per-workload slowdown of
// SENSS at authentication interval 100 (4P, large-class L2).
func BenchmarkFig6_Slowdown(b *testing.B) {
	for _, name := range workload.PaperSuite() {
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(4, 64<<10)
			cfg.Security.Mode = SecurityBus
			cfg.Security.Senss.Perfect = true
			cfg.Security.Senss.AuthInterval = 100
			var slow float64
			for i := 0; i < b.N; i++ {
				base, sec := comparePair(b, name, cfg)
				slow = stats.SlowdownPct(base, sec)
			}
			b.ReportMetric(slow, "slowdown_pct")
		})
	}
}

// BenchmarkFig7_Masks reproduces Figure 7: the cost of shrinking the mask
// supply (radix, the most bus-intensive kernel).
func BenchmarkFig7_Masks(b *testing.B) {
	points := []struct {
		label   string
		masks   int
		perfect bool
	}{
		{"perfect", 8, true}, {"masks8", 8, false}, {"masks4", 4, false},
		{"masks2", 2, false}, {"masks1", 1, false},
	}
	for _, pt := range points {
		b.Run(pt.label, func(b *testing.B) {
			cfg := benchConfig(4, 64<<10)
			cfg.Security.Mode = SecurityBus
			cfg.Security.Senss.Masks = pt.masks
			cfg.Security.Senss.Perfect = pt.perfect
			cfg.Security.Senss.AuthInterval = 100
			var slow, stalls float64
			for i := 0; i < b.N; i++ {
				base, sec := comparePair(b, "radix", cfg)
				slow = stats.SlowdownPct(base, sec)
				stalls = float64(sec.MaskStalls)
			}
			b.ReportMetric(slow, "slowdown_pct")
			b.ReportMetric(stalls, "mask_stall_cycles")
		})
	}
}

// BenchmarkFig8_Traffic reproduces Figure 8: bus-activity increase per
// workload (4P, small-class L2).
func BenchmarkFig8_Traffic(b *testing.B) {
	for _, name := range workload.PaperSuite() {
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(4, 16<<10)
			cfg.Security.Mode = SecurityBus
			cfg.Security.Senss.Perfect = true
			cfg.Security.Senss.AuthInterval = 100
			var tr float64
			for i := 0; i < b.N; i++ {
				base, sec := comparePair(b, name, cfg)
				tr = stats.TrafficIncreasePct(base, sec)
			}
			b.ReportMetric(tr, "traffic_pct")
		})
	}
}

// BenchmarkFig9_AuthInterval reproduces Figure 9: the authentication
// interval sweep (radix, 4P).
func BenchmarkFig9_AuthInterval(b *testing.B) {
	for _, interval := range []int{100, 32, 10, 1} {
		b.Run(map[int]string{100: "txns100", 32: "txns32", 10: "txns10", 1: "txns1"}[interval],
			func(b *testing.B) {
				cfg := benchConfig(4, 64<<10)
				cfg.Security.Mode = SecurityBus
				cfg.Security.Senss.Perfect = true
				cfg.Security.Senss.AuthInterval = interval
				var slow, tr float64
				for i := 0; i < b.N; i++ {
					base, sec := comparePair(b, "radix", cfg)
					slow = stats.SlowdownPct(base, sec)
					tr = stats.TrafficIncreasePct(base, sec)
				}
				b.ReportMetric(slow, "slowdown_pct")
				b.ReportMetric(tr, "traffic_pct")
			})
	}
}

// BenchmarkFig10_Integrated reproduces Figure 10: SENSS plus memory
// encryption (perfect SNC) and CHash integrity, small-class L2.
func BenchmarkFig10_Integrated(b *testing.B) {
	for _, name := range workload.PaperSuite() {
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(4, 16<<10)
			cfg.Security.Mode = SecurityBusMem
			cfg.Security.Integrity = true
			cfg.Security.Senss.Perfect = true
			cfg.Security.Senss.AuthInterval = 100
			var slow, tr float64
			for i := 0; i < b.N; i++ {
				base, sec := comparePair(b, name, cfg)
				slow = stats.SlowdownPct(base, sec)
				tr = stats.TrafficIncreasePct(base, sec)
			}
			b.ReportMetric(slow, "slowdown_pct")
			b.ReportMetric(tr, "traffic_pct")
		})
	}
}

// BenchmarkFig11_Variability reproduces §7.8 / Figure 11: the spread of
// the secure-vs-base comparison across small timing perturbations.
func BenchmarkFig11_Variability(b *testing.B) {
	var spread, fasterShare float64
	for i := 0; i < b.N; i++ {
		var minS, maxS float64
		faster := 0
		const seeds = 6
		for seed := 1; seed <= seeds; seed++ {
			base := benchConfig(4, 64<<10)
			base.PerturbMax = 3
			base.PerturbSeed = uint64(seed)
			baseRun := mustRun(b, "falseshare", base)
			sec := base
			sec.Security.Mode = SecurityBus
			sec.Security.Senss.Perfect = true
			sec.Security.Senss.AuthInterval = 100
			secRun := mustRun(b, "falseshare", sec)
			s := stats.SlowdownPct(baseRun, secRun)
			if seed == 1 || s < minS {
				minS = s
			}
			if seed == 1 || s > maxS {
				maxS = s
			}
			if s < 0 {
				faster++
			}
		}
		spread = maxS - minS
		fasterShare = float64(faster) / seeds
	}
	b.ReportMetric(spread, "slowdown_spread_pct")
	b.ReportMetric(fasterShare*100, "secure_faster_pct_of_seeds")
}

// BenchmarkTable1_BusCrypto measures the Table 1 datapath itself: the
// per-line cost of the SHU encrypt/observe path (four OTP XORs on the
// critical path, chained AES refresh and MAC in the background).
func BenchmarkTable1_BusCrypto(b *testing.B) {
	params := core.DefaultParams()
	params.Perfect = true
	sys := core.NewSystem(nil, nil, 2, params, false)
	r := rng.New(42)
	key := aes.Block(r.Block16())
	encIV := aes.Block(r.Block16())
	authIV := aes.Block(r.Block16())
	if err := sys.Establish(0, key, core.MemberMask(0, 1), encIV, authIV); err != nil {
		b.Fatal(err)
	}
	line := make([]byte, 64)
	r.Read(line)
	plain := core.LineToBlocks(line)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cipher, err := sys.SHU(0).Encrypt(0, plain)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.SHU(1).Observe(0, cipher, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw simulator throughput (memory operations
// per second) on the unprotected machine — the substrate's own speed.
func BenchmarkSimulator(b *testing.B) {
	var ops uint64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(4, 64<<10)
		run := mustRun(b, "ocean", cfg)
		ops = run.Loads + run.Stores + run.RMWs
	}
	b.ReportMetric(float64(ops), "sim_mem_ops")
}
