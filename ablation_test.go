package senss

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// isolates one mechanism and reports how much of the overhead (or saving)
// it is responsible for.

import (
	"testing"

	"senss/internal/core"
	"senss/internal/machine"
	"senss/internal/stats"
)

// BenchmarkAblation_BusOverhead isolates the +3-cycle per-message datapath
// cost (§7.1: 1 sender XOR + 2 receiver cycles) from the rest of SENSS.
func BenchmarkAblation_BusOverhead(b *testing.B) {
	for _, overhead := range []uint64{0, 3} {
		name := map[uint64]string{0: "without", 3: "with"}[overhead]
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(4, 64<<10)
			cfg.Security.Mode = SecurityBus
			cfg.Security.Senss.Perfect = true
			cfg.Security.Senss.AuthInterval = 100
			cfg.Security.Senss.BusOverhead = overhead
			var slow float64
			for i := 0; i < b.N; i++ {
				base, sec := comparePair(b, "radix", cfg)
				slow = stats.SlowdownPct(base, sec)
			}
			b.ReportMetric(slow, "slowdown_pct")
		})
	}
}

// BenchmarkAblation_AuthMode compares the paper's CBC chaining against the
// §4.3 GCM-style extension under mask scarcity: counter-mode masks never
// stall, so AuthGF with one bank should approach the perfect-mask CBC run.
func BenchmarkAblation_AuthMode(b *testing.B) {
	modes := []struct {
		name string
		mode core.AuthMode
	}{{"cbc1mask", core.AuthCBC}, {"gf1mask", core.AuthGF}}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cfg := benchConfig(4, 64<<10)
			cfg.Security.Mode = SecurityBus
			cfg.Security.Senss.AuthMode = m.mode
			cfg.Security.Senss.Perfect = false
			cfg.Security.Senss.Masks = 1
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

// BenchmarkAblation_PadCoherence compares §6.1's write-invalidate and
// write-update pad-coherence variants under a finite sequence-number cache.
func BenchmarkAblation_PadCoherence(b *testing.B) {
	for _, update := range []bool{false, true} {
		name := map[bool]string{false: "invalidate", true: "update"}[update]
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(4, 8<<10) // tiny L2: heavy writeback traffic
			cfg.Security.Mode = SecurityBusMem
			cfg.Security.Senss.Perfect = true
			cfg.Security.Senss.AuthInterval = 100
			cfg.Security.Memsec.PerfectSNC = false
			cfg.Security.Memsec.PadEntries = 256
			cfg.Security.Memsec.WriteUpdate = update
			var slow, misses float64
			for i := 0; i < b.N; i++ {
				base, sec := comparePair(b, "radix", cfg)
				slow = stats.SlowdownPct(base, sec)
				misses = float64(sec.PadMisses)
			}
			b.ReportMetric(slow, "slowdown_pct")
			b.ReportMetric(misses, "pad_misses")
		})
	}
}

// BenchmarkAblation_TreeWarm sweeps the hash-tree warm budget: how much of
// Figure 10's overhead is cold-tree fetching vs steady-state maintenance.
func BenchmarkAblation_TreeWarm(b *testing.B) {
	for _, warm := range []int{64, 2 << 10, 16 << 10} {
		b.Run(map[int]string{64: "cold", 2 << 10: "top2k", 16 << 10: "warm16k"}[warm],
			func(b *testing.B) {
				cfg := benchConfig(4, 64<<10)
				cfg.Security.Mode = SecurityBusMem
				cfg.Security.Integrity = true
				cfg.Security.Senss.Perfect = true
				cfg.Security.Senss.AuthInterval = 100
				cfg.Security.TreeWarmBytes = warm
				var slow, hashes float64
				for i := 0; i < b.N; i++ {
					base, sec := comparePair(b, "radix", cfg)
					slow = stats.SlowdownPct(base, sec)
					hashes = float64(sec.HashOps)
				}
				b.ReportMetric(slow, "slowdown_pct")
				b.ReportMetric(hashes, "hash_ops")
			})
	}
}

// BenchmarkAblation_NaiveBaseline quantifies why the paper dismisses the
// direct-encryption baseline (§7.3: "of less interest because of its
// performance penalty"): block-cipher latency on both ends of every
// cache-to-cache transfer vs SENSS's one-XOR critical path.
func BenchmarkAblation_NaiveBaseline(b *testing.B) {
	for _, mode := range []machine.SecurityMode{SecurityBus, SecurityNaive} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := benchConfig(4, 64<<10)
			cfg.Security.Mode = mode
			cfg.Security.Senss.Perfect = true
			cfg.Security.Senss.AuthInterval = 100
			var slow float64
			for i := 0; i < b.N; i++ {
				base, sec := comparePair(b, "radix", cfg)
				slow = stats.SlowdownPct(base, sec)
			}
			b.ReportMetric(slow, "slowdown_pct")
		})
	}
}

// BenchmarkAblation_IntegrityMode compares eager CHash verification with
// the LHash-style lazy mode (paper §2.2: "significantly reduced to 5%
// compared to 25%"; §7.7: LHash "will also be very effective in SENSS").
func BenchmarkAblation_IntegrityMode(b *testing.B) {
	for _, lazy := range []bool{false, true} {
		name := map[bool]string{false: "chash", true: "lhash"}[lazy]
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(4, 16<<10)
			cfg.Security.Mode = SecurityBusMem
			cfg.Security.Integrity = true
			cfg.Security.Tree.Lazy = lazy
			cfg.Security.Senss.Perfect = true
			cfg.Security.Senss.AuthInterval = 100
			var slow float64
			for i := 0; i < b.N; i++ {
				base, sec := comparePair(b, "radix", cfg)
				slow = stats.SlowdownPct(base, sec)
			}
			b.ReportMetric(slow, "slowdown_pct")
		})
	}
}

// BenchmarkAblation_MaskStallsVsInterval cross-checks that mask scarcity
// and authentication frequency compose additively rather than interacting
// pathologically (the two overhead sources of §7.3).
func BenchmarkAblation_MaskStallsVsInterval(b *testing.B) {
	cases := []struct {
		name     string
		masks    int
		perfect  bool
		interval int
	}{
		{"masks8_int100", 8, false, 100},
		{"masks8_int1", 8, false, 1},
		{"masks1_int100", 1, false, 100},
		{"masks1_int1", 1, false, 1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := benchConfig(4, 64<<10)
			cfg.Security.Mode = SecurityBus
			cfg.Security.Senss.Masks = c.masks
			cfg.Security.Senss.Perfect = c.perfect
			cfg.Security.Senss.AuthInterval = c.interval
			var slow float64
			for i := 0; i < b.N; i++ {
				base, sec := comparePair(b, "ocean", cfg)
				slow = stats.SlowdownPct(base, sec)
			}
			b.ReportMetric(slow, "slowdown_pct")
		})
	}
}

var _ = machine.DefaultConfig // keep the import when cases change
