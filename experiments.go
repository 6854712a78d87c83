package senss

import (
	"fmt"

	"senss/internal/core"
	"senss/internal/farm"
	"senss/internal/machine"
	"senss/internal/stats"
	"senss/internal/workload"
)

// This file is the figure-regeneration harness for the paper's evaluation
// (§7). Each figure is a value: the rows it reports (workloads, or
// perturbation seeds for Figure 11), one machine configuration per
// column, and the tables read off that grid. A figure lists its jobs; the
// farm (DESIGN.md §10) runs the ones its cache lacks across its worker
// pool, and the tables are then assembled from the cache. Identical
// points across figures simulate once, a sweep that stopped part-way
// resumes from what the cache holds, and the tables are byte-identical
// for any worker count and any cache temperature. cmd/senss-tables
// prints them; EXPERIMENTS.md records paper-vs-measured values.
//
// Problem and cache sizes are scaled together (DESIGN.md §2): the paper's
// "1 MB / 4 MB L2" points map to capacities proportionate to the scaled
// working sets, preserving which level the working set spills out of.

// Harness runs experiment sweeps on a farm.
type Harness struct {
	Size      Size
	Workloads []string

	// Crypto, when non-empty, names the crypto.BlockCipher backend every
	// secured run of the sweep uses ("ref", "stdlib"). Baseline
	// (security-off) runs never carry a backend, so they stay shared
	// across backends in the cache. Empty means the default (reference)
	// backend.
	Crypto string

	farm *farm.Farm
}

// NewHarness creates a harness at the given problem scale over the
// paper's five benchmarks, on a memory-only farm with one worker per
// core.
func NewHarness(size Size) *Harness {
	return NewHarnessOn(size, farm.NewMem(0))
}

// NewHarnessOn runs the harness on an explicit farm, putting worker
// count, disk caching, and progress reporting under the caller's
// control (cmd/senss-tables and cmd/senss-farm).
func NewHarnessOn(size Size, f *farm.Farm) *Harness {
	return &Harness{
		Size:      size,
		Workloads: workload.PaperSuite(),
		farm:      f,
	}
}

// job is the farm job for one simulation point.
func (h *Harness) job(name string, cfg Config) farm.Job {
	if h.Crypto != "" && cfg.Security.Mode != machine.SecurityOff {
		cfg.Security.Senss.Backend = h.Crypto
	}
	return farm.Job{Workload: name, Size: h.Size, Config: cfg}
}

// pair returns the canonical baseline and the secured run of cfg,
// simulating whichever the farm's cache lacks.
func (h *Harness) pair(name string, cfg Config) (base, sec Run, err error) {
	base, err = h.farm.Get(h.job(name, cfg.Baseline()))
	if err != nil {
		return base, sec, err
	}
	sec, err = h.farm.Get(h.job(name, cfg))
	return base, sec, err
}

// jobSet collects jobs in the order they are listed, each content hash
// once.
type jobSet struct {
	seen map[string]bool
	jobs []farm.Job
}

// addPair lists the canonical baseline and the secured run of cfg.
func (s *jobSet) addPair(h *Harness, name string, cfg Config) {
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	for _, j := range []farm.Job{h.job(name, cfg.Baseline()), h.job(name, cfg)} {
		if k := j.Hash(); !s.seen[k] {
			s.seen[k] = true
			s.jobs = append(s.jobs, j)
		}
	}
}

// l2Bytes maps the paper's small (1 MB) and large (4 MB) L2 points to
// scaled capacities.
func (h *Harness) l2Bytes(big bool) int {
	if h.Size == SizeBench {
		if big {
			return 256 << 10
		}
		return 64 << 10
	}
	if big {
		return 64 << 10
	}
	return 16 << 10
}

// l2Label names an L2 point in the paper's terms.
func l2Label(big bool) string {
	if big {
		return "4M-class L2"
	}
	return "1M-class L2"
}

// baseConfig builds the machine configuration for an experiment point.
func (h *Harness) baseConfig(procs int, bigL2 bool) Config {
	cfg := machine.DefaultConfig()
	cfg.Procs = procs
	cfg.SmallGeometry()
	cfg.Coherence.L2Size = h.l2Bytes(bigL2)
	return cfg
}

// senssConfig is the paper's bus-security-only setup: perfect mask supply,
// authentication every 100 cache-to-cache transfers.
func (h *Harness) senssConfig(procs int, bigL2 bool) Config {
	cfg := h.baseConfig(procs, bigL2)
	cfg.Security.Mode = machine.SecurityBus
	cfg.Security.Senss.Perfect = true
	cfg.Security.Senss.AuthInterval = 100
	return cfg
}

func pct(v float64) string { return fmt.Sprintf("%.3f", v) }

// Figure is one evaluation figure as a value: the simulation jobs it
// needs and how its tables are read off their results.
type Figure struct {
	farm   *farm.Farm
	jobs   []farm.Job
	tables func() ([]*Table, error)
}

// Jobs lists the figure's simulation points, each configuration once.
func (f *Figure) Jobs() []farm.Job { return f.jobs }

// Tables runs the figure's jobs on the farm — simulating only those its
// cache lacks — and assembles the figure's tables from the results.
func (f *Figure) Tables() ([]*Table, error) {
	if _, err := f.farm.Run(f.jobs); err != nil {
		return nil, err
	}
	return f.tables()
}

// FigureNames lists the names Harness.Figure accepts, in report order.
func FigureNames() []string { return []string{"6", "7", "8", "9", "10", "11", "scale"} }

// Figure returns a figure of the evaluation by name: "6" to "11" are the
// paper's Figures 6-11 and "scale" is extension E2, Figure 6's
// measurement extended to 8 and 16 processors.
//
// Figure 10 runs on the large L2 class: the paper runs it on its 1 MB
// L2, which comfortably holds the SPLASH2 working sets, and at our scale
// that capacity ratio corresponds to the large class (the small class
// would overstate hash-tree cache pollution far beyond the paper's
// regime).
func (h *Harness) Figure(name string) (*Figure, error) {
	var g grid
	switch name {
	case "6":
		g = h.l2Grid("Figure 6 — %% slowdown, write-invalidate, %s", slowdown)
	case "7":
		var cols []column
		for _, pt := range []struct {
			label   string
			masks   int
			perfect bool
		}{{"perfect", 8, true}, {"4 masks", 4, false}, {"2 masks", 2, false}, {"1 mask", 1, false}} {
			cfg := h.senssConfig(4, true)
			cfg.Security.Senss.Masks = pt.masks
			cfg.Security.Senss.Perfect = pt.perfect
			cols = append(cols, column{pt.label, cfg})
		}
		g = h.costGrid(cols,
			"Figure 7a — % slowdown vs number of masks (4P, 4M-class L2)",
			"Figure 7b — % bus activity increase vs number of masks (4P, 4M-class L2)")
	case "8":
		g = h.l2Grid("Figure 8 — %% bus activity increase, %s", traffic)
	case "9":
		var cols []column
		for _, pt := range []struct {
			label    string
			interval int
		}{{"100 txns", 100}, {"32 txns", 32}, {"10 txns", 10}, {"1 txn", 1}} {
			cfg := h.senssConfig(4, true)
			cfg.Security.Senss.AuthInterval = pt.interval
			cols = append(cols, column{pt.label, cfg})
		}
		g = h.costGrid(cols,
			"Figure 9a — % slowdown vs authentication interval (4P, 4M-class L2)",
			"Figure 9b — % bus activity increase vs authentication interval (4P, 4M-class L2)")
	case "10":
		busCfg := h.senssConfig(4, true)
		fullCfg := busCfg
		fullCfg.Security.Mode = machine.SecurityBusMem
		fullCfg.Security.Integrity = true
		fullCfg.Security.Memsec.PerfectSNC = true
		g = h.costGrid([]column{{"SENSS", busCfg}, {"SENSS+Mem_OTP_CHash", fullCfg}},
			"Figure 10a — % slowdown, 1M-class L2 (4P)",
			"Figure 10b — % bus activity increase, 1M-class L2 (4P)")
	case "11":
		return h.variability(), nil
	case "scale":
		cols := h.procColumns(true, 2, 4, 8, 16)
		g = grid{h: h, rows: h.Workloads, tables: []gridTable{
			{"Extension E2 — % slowdown vs processor count (SENSS, interval 100, 4M-class L2)", cols, slowdown, true},
			{"Extension E2 — cache-to-cache share of bus transactions (baseline)", cols, c2cShare, false},
		}}
	default:
		return nil, fmt.Errorf("senss: no figure %q (6-11 and scale available)", name)
	}
	return &Figure{farm: h.farm, jobs: g.jobs(), tables: g.build}, nil
}

// metric is what a table cell reports for one column's baseline and
// secured runs.
type metric int

const (
	slowdown metric = iota // % slowdown of the secured run over the baseline
	traffic                // % bus-activity increase of the secured run
	c2cShare               // the baseline's cache-to-cache share of bus transactions
)

// cell returns the metric's value and its printed form.
func (m metric) cell(base, sec Run) (float64, string) {
	switch m {
	case slowdown:
		v := stats.SlowdownPct(base, sec)
		return v, pct(v)
	case traffic:
		v := stats.TrafficIncreasePct(base, sec)
		return v, pct(v)
	}
	v := base.C2CShare() * 100
	return v, fmt.Sprintf("%.1f%%", v)
}

// column is one column of a figure table: its header and the secured
// configuration measured against its canonical baseline.
type column struct {
	label string
	cfg   Config
}

// gridTable is one table of a grid figure: a metric read off a set of
// columns, optionally closed by the column averages.
type gridTable struct {
	title   string
	columns []column
	metric  metric
	average bool
}

// grid is a figure whose rows are workloads.
type grid struct {
	h      *Harness
	rows   []string
	tables []gridTable
}

// procColumns is SENSS at interval 100 on each processor count, at one
// L2 class.
func (h *Harness) procColumns(big bool, procs ...int) []column {
	cols := make([]column, len(procs))
	for i, p := range procs {
		cols[i] = column{fmt.Sprintf("%dP", p), h.senssConfig(p, big)}
	}
	return cols
}

// l2Grid is the grid Figures 6 and 8 share — 2 and 4 processors at each
// L2 class, one table per class — reading m; title formats the class.
func (h *Harness) l2Grid(title string, m metric) grid {
	g := grid{h: h, rows: h.Workloads}
	for _, big := range []bool{false, true} {
		g.tables = append(g.tables, gridTable{fmt.Sprintf(title, l2Label(big)), h.procColumns(big, 2, 4), m, true})
	}
	return g
}

// costGrid reads slowdown and then traffic off the same columns, as
// Figures 7, 9 and 10 do.
func (h *Harness) costGrid(cols []column, slowTitle, trafficTitle string) grid {
	return grid{h: h, rows: h.Workloads, tables: []gridTable{
		{slowTitle, cols, slowdown, true},
		{trafficTitle, cols, traffic, true},
	}}
}

// jobs lists every (row, column) point of every table.
func (g grid) jobs() []farm.Job {
	var js jobSet
	for _, t := range g.tables {
		for _, name := range g.rows {
			for _, c := range t.columns {
				js.addPair(g.h, name, c.cfg)
			}
		}
	}
	return js.jobs
}

// build assembles the grid's tables from the farm's results.
func (g grid) build() ([]*Table, error) {
	var tables []*Table
	for _, gt := range g.tables {
		t := &Table{Title: gt.title, Columns: []string{"benchmark"}}
		for _, c := range gt.columns {
			t.Columns = append(t.Columns, c.label)
		}
		sums := make([]float64, len(gt.columns))
		for _, name := range g.rows {
			row := []string{name}
			for i, c := range gt.columns {
				base, sec, err := g.h.pair(name, c.cfg)
				if err != nil {
					return nil, err
				}
				v, text := gt.metric.cell(base, sec)
				sums[i] += v
				row = append(row, text)
			}
			t.Add(row...)
		}
		if gt.average {
			avg := []string{"average"}
			for _, sum := range sums {
				avg = append(avg, pct(sum/float64(len(g.rows))))
			}
			t.Add(avg...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// variability is Figure 11, the §7.8 variability study: identical runs of
// the false-sharing microbenchmark under small deterministic bus-timing
// perturbations, one row per perturbation seed. The spread — including
// secure runs that beat the base — is the paper's point about
// full-system simulation noise.
func (h *Harness) variability() *Figure {
	const seeds = 8
	cfgs := make([]Config, seeds)
	var js jobSet
	for i := range cfgs {
		cfgs[i] = h.senssConfig(4, true)
		cfgs[i].PerturbMax = 3
		cfgs[i].PerturbSeed = uint64(i + 1)
		js.addPair(h, "falseshare", cfgs[i])
	}
	tables := func() ([]*Table, error) {
		t := &Table{
			Title:   "Figure 11 / §7.8 — timing variability under ±3-cycle bus perturbation (falseshare, 4P)",
			Columns: []string{"perturb seed", "base cycles", "senss cycles", "slowdown %"},
		}
		faster := 0
		for _, cfg := range cfgs {
			base, sec, err := h.pair("falseshare", cfg)
			if err != nil {
				return nil, err
			}
			s := stats.SlowdownPct(base, sec)
			if s < 0 {
				faster++
			}
			t.Add(fmt.Sprintf("%d", cfg.PerturbSeed),
				fmt.Sprintf("%d", base.Cycles), fmt.Sprintf("%d", sec.Cycles), pct(s))
		}
		t.Add("secure<base", fmt.Sprintf("%d of %d seeds", faster, seeds), "", "")
		return []*Table{t}, nil
	}
	return &Figure{farm: h.farm, jobs: js.jobs, tables: tables}
}

// DetectionLatency is an extension experiment (E1 in DESIGN.md): for each
// authentication interval, inject one message drop at a pseudo-random
// point of a radix run (per seed) and measure how many protected transfers
// pass between the attack and the global alarm. The paper's guarantee is
// latency ≤ interval; the table shows the measured distribution.
//
// Attack injection needs a hand-assembled machine with a tamperer
// attached, so this experiment does not route through the farm.
func (h *Harness) DetectionLatency(seeds int) ([]*Table, error) {
	t := &Table{
		Title:   "Extension E1 — Type 1 attack detection latency (protected transfers until alarm)",
		Columns: []string{"auth interval", "min", "mean", "max", "bound", "detected"},
	}
	for _, interval := range []int{1, 10, 32, 100} {
		var lats []uint64
		detected := 0
		for seed := 0; seed < seeds; seed++ {
			lat, ok, err := h.injectDrop(interval, uint64(seed))
			if err != nil {
				return nil, err
			}
			if ok {
				detected++
				lats = append(lats, lat)
			}
		}
		var mn, mx, sum uint64
		for i, l := range lats {
			if i == 0 || l < mn {
				mn = l
			}
			if l > mx {
				mx = l
			}
			sum += l
		}
		mean := "-"
		if len(lats) > 0 {
			mean = fmt.Sprintf("%.1f", float64(sum)/float64(len(lats)))
		}
		t.Add(fmt.Sprintf("%d", interval),
			fmt.Sprintf("%d", mn), mean, fmt.Sprintf("%d", mx),
			fmt.Sprintf("≤ %d", interval),
			fmt.Sprintf("%d/%d", detected, seeds))
	}
	return []*Table{t}, nil
}

// injectDrop runs radix under SENSS with one dropped broadcast and returns
// the detection latency in protected transfers.
func (h *Harness) injectDrop(interval int, seed uint64) (latency uint64, detected bool, err error) {
	cfg := h.senssConfig(4, true)
	cfg.Security.Senss.AuthInterval = interval
	cfg.Seed = 1 // fixed machine; the attack point varies by seed
	w, err := workload.New("radix", h.Size)
	if err != nil {
		return 0, false, err
	}
	m := machine.New(cfg)
	progs := w.Setup(m, cfg.Procs)
	m.Load()
	drop := core.NewScript(cfg.Procs, []core.Step{{
		Seq:    50 + 37*seed, // pseudo-random strike point
		Action: core.ActDrop,
		Victim: 1 + int(seed)%3,
	}})
	m.SetTamperer(drop)
	run, err := m.Run(progs)
	if err != nil {
		return 0, false, err
	}
	landed, ok := drop.Landed()
	if !run.Halted || !ok {
		return 0, false, nil
	}
	return m.Senss.Stats.Messages - landed - 1, true, nil
}
