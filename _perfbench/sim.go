package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"senss/internal/driver"
	"senss/internal/stats"
	"senss/internal/workload"
)

// phase is what one measured phase produced.
type phase struct {
	tally
	sessions int    // completed and checked
	ops      uint64 // simulated loads+stores+RMWs of those sessions
	wall     time.Duration
	lat      latencies
}

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.wall.Seconds() }

func (p *phase) add(o phase) {
	p.tally.merge(o.tally)
	p.sessions += o.sessions
	p.ops += o.ops
	p.wall += o.wall
	p.lat.merge(o.lat)
}

// traceChunks is how many untraced and traced chunks a traced run
// alternates, so both modes see the same host conditions.
const traceChunks = 3

// runSim runs sim-splash or sim-memprotect.
func runSim(o options) (result, *traceReport, error) {
	var cells []cell
	setupS, err := timeSetup(func() error {
		golden, err := loadGolden(o.root)
		if err != nil {
			return err
		}
		if cells, err = simCells(o.workload, golden); err != nil {
			return err
		}
		// Warm-up: one session of the first cell, in paper order, so
		// set-up does the same work whatever the seed.
		var lat latencies
		_, err = simSession(cells[0], nil, 0, &lat)
		return err
	})
	if err != nil {
		return result{}, nil, err
	}
	rng := rand.New(rand.NewPCG(o.seed, 0))
	if o.trace {
		return traceSim(o, cells, rng)
	}
	ph := simPhase(cells, rng, o.seconds, true, nil)
	m, err := endToEnd(setupS, ph.sessions, ph.ops, ph.wall.Seconds(), ph.lat)
	if err != nil {
		return result{}, nil, err
	}
	return ph.finish(m), nil, nil
}

// simPhase runs whole rounds — every cell once, in a seeded order — until
// d has passed and, when full is set, every percentile has its samples.
// Whole rounds keep the kernel mix the same whatever the seed; there is
// always at least one.
func simPhase(cells []cell, rng *rand.Rand, d time.Duration, full bool, tr *tracer) phase {
	var ph phase
	start := time.Now()
	for {
		for _, i := range rng.Perm(len(cells)) {
			run, err := simSession(cells[i], tr, tr.newID(), &ph.lat)
			ph.tally.add(err)
			if err == nil {
				ph.sessions++
				ph.ops += simOps(run)
			}
		}
		el := time.Since(start)
		if el >= hardCap || (el >= d && (!full || ph.lat.enough())) {
			break
		}
	}
	ph.wall = time.Since(start)
	return ph
}

// simSession runs one golden cell serially through driver.Session —
// NewSession, Step in slices of sliceCycles, Result, Close — recording its
// latencies and spans, then checks the result against the golden cell.
func simSession(c cell, tr *tracer, id int, lat *latencies) (stats.Run, error) {
	root := tr.begin(id, "session", -1)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin(id, "driver.new_session", root)
	s, err := driver.NewSession(c.kernel, workload.SizeTest, c.cfg)
	tr.end(sp)
	if err != nil {
		return stats.Run{}, fmt.Errorf("%s: %w", c.key(), err)
	}
	create := time.Since(t0)
	for done := false; !done; {
		ts := time.Now()
		sp := tr.begin(id, "driver.step", root)
		done, _ = s.Step(sliceCycles)
		tr.end(sp)
		lat.step = append(lat.step, msSince(ts))
	}
	sp = tr.begin(id, "driver.result", root)
	run, err := s.Result()
	tr.end(sp)
	sp = tr.begin(id, "driver.close", root)
	s.Close()
	tr.end(sp)
	if err != nil {
		return run, fmt.Errorf("%s: %w", c.key(), err)
	}
	if err := sameRun(c.key(), run, c.want); err != nil {
		return run, err
	}
	lat.create = append(lat.create, ms(create))
	return run, nil
}

// traceSim is the traced run of a sim workload: untraced and traced
// chunks in turn, half the budget each (their ratio is the tracing
// overhead), then the serving layer over the workload's cells, then the
// per-layer probes.
func traceSim(o options, cells []cell, rng *rand.Rand) (result, *traceReport, error) {
	chunk := o.seconds / (2 * traceChunks)
	tr := newTracer(time.Now())
	var plain, traced phase
	for i := 0; i < traceChunks; i++ {
		plain.add(simPhase(cells, rng, chunk, false, nil))
		traced.add(simPhase(cells, rng, chunk, false, tr))
	}
	var t tally
	t.merge(plain.tally)
	t.merge(traced.tally)
	m := map[string]metric{
		"trace.overhead_pct": {(plain.opsPerSec()/traced.opsPerSec() - 1) * 100, "%"},
	}

	// The serving layer over this workload's cells: one client, one
	// session per cell, each replayed serially for the expected result.
	var sc []serveCell
	for _, c := range cells {
		sc = append(sc, serveCell{spec: specFor(c)})
	}
	if err := servedLayers(sc, tr, &t, m); err != nil {
		return result{}, nil, err
	}

	var probes []probeCase
	for _, c := range cells {
		probes = append(probes, probeCase{c.kernel, c.cfg, c.want})
	}
	runs, err := layerProbes(probes, tr, &t, m)
	if err != nil {
		return result{}, nil, err
	}
	// The probes ran each cell once; the traced chunks ran whole rounds.
	var work stats.Run
	for _, r := range runs {
		addWork(&work, r)
	}
	rounds := float64(traced.sessions) / float64(len(cells))
	stepMetrics(m, tr.durations("driver.step", nil), work, rounds)
	if err := checkLayerMetrics(m); err != nil {
		return result{}, nil, err
	}
	return t.finish(m), tr.report(o, m), nil
}

// addWork adds the simulated work of r to w: retired ops, cycles and bus
// transactions.
func addWork(w *stats.Run, r stats.Run) {
	w.Loads += r.Loads
	w.Stores += r.Stores
	w.RMWs += r.RMWs
	w.Cycles += r.Cycles
	w.BusTotal += r.BusTotal
}

// stepMetrics derives the per-step host costs from driver.Session.Step
// spans: steps retired times the simulated work in work.
func stepMetrics(m map[string]metric, steps []float64, work stats.Run, times float64) {
	stepNS := sum(steps) * 1e6
	m["driver.step_ms"] = metric{median(steps), "ms"}
	m["driver.ns_per_sim_op"] = metric{stepNS / (times * float64(simOps(work))), "ns"}
	m["driver.ns_per_sim_cycle"] = metric{stepNS / (times * float64(work.Cycles)), "ns"}
	m["bus.ns_per_txn"] = metric{stepNS / (times * float64(work.BusTotal)), "ns"}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
