package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"senss/internal/crypto"
	"senss/internal/driver"
	"senss/internal/machine"
	"senss/internal/serve"
	"senss/internal/stats"
	"senss/internal/workload"
)

// serveKernels and serveSecurity span the serve-mix cells: each workload
// on a 2-proc machine, unprotected and under SENSS with the stdlib cipher.
var (
	serveKernels  = []string{"lockcontend", "prodcons", "falseshare", "fft", "ocean", "radix"}
	serveSecurity = []struct{ mode, crypto string }{{"base", ""}, {"senss", crypto.Stdlib}}
)

// serveTenants is how many tenants share the server.
const serveTenants = 4

// serveCell is one kind of served session.
type serveCell struct {
	spec serve.SessionSpec
	want []byte // compact JSON of the serial driver.Run result; nil = check by replay
	ops  uint64 // simulated loads+stores+RMWs of one session
}

// serveMixCells lists the serve-mix cells (tenant chosen per session).
func serveMixCells() []serveCell {
	var cells []serveCell
	for _, k := range serveKernels {
		for _, s := range serveSecurity {
			cells = append(cells, serveCell{spec: serve.SessionSpec{Workload: k, Procs: 2, Security: s.mode, Crypto: s.crypto}})
		}
	}
	return cells
}

// specFor maps a golden cell onto the closest session spec: same kernel,
// processor count, security mode, integrity and cipher. The service's
// compact geometry is the golden one; the SHU keeps its default masks
// and authentication interval.
func specFor(c cell) serve.SessionSpec {
	spec := serve.SessionSpec{Workload: c.kernel, Procs: c.cfg.Procs, Security: c.cfg.Security.Mode.String(), Crypto: c.variant.backend}
	if c.cfg.Security.Mode == machine.SecurityBusMem {
		spec.Integrity = c.cfg.Security.Integrity
	}
	return spec
}

// expect runs a cell serially through driver.Run, the reference every
// served session of the cell must reproduce.
func (sc *serveCell) expect() error {
	cfg, err := sc.spec.Config()
	if err != nil {
		return err
	}
	run, err := driver.Run(sc.spec.Workload, workload.SizeTest, cfg)
	if err != nil {
		return fmt.Errorf("serial %s: %w", sc.spec.Workload, err)
	}
	if sc.want, err = json.Marshal(run); err != nil {
		return err
	}
	sc.ops = simOps(run)
	return nil
}

func (sc serveCell) key() string { return sc.spec.Workload + "/" + sc.spec.Security }

// job is one session of a client's schedule.
type job struct {
	cell   int
	tenant string
}

// schedule is one client's seeded session sequence: successive seeded
// permutations of every cell, each session assigned a seeded tenant, so
// the mix is the same for every seed and only the order differs.
type schedule struct {
	rng   *rand.Rand
	cells int
	perm  []int
}

func newSchedule(seed uint64, client, cells int) *schedule {
	return &schedule{rng: rand.New(rand.NewPCG(seed, uint64(client)+1)), cells: cells}
}

func (s *schedule) next() job {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(s.cells)
	}
	j := job{cell: s.perm[0], tenant: fmt.Sprintf("tenant-%d", s.rng.IntN(serveTenants))}
	s.perm = s.perm[1:]
	return j
}

// runServe runs serve-mix.
func runServe(o options) (result, *traceReport, error) {
	cells := serveMixCells()
	setupS, err := timeSetup(func() error {
		for i := range cells {
			if err := cells[i].expect(); err != nil {
				return err
			}
		}
		// Warm-up: one served session of the first cell.
		srv := serve.New(serve.Options{})
		defer srv.Close()
		c := &client{h: srv}
		_, err := c.session(0, cells[0], "tenant-0")
		return err
	})
	if err != nil {
		return result{}, nil, err
	}
	// One client per CPU but one: the last CPU is left to the garbage
	// collector and the host, so the benchmark measures the server rather
	// than the OS scheduler. Two clients on two CPUs doubled the
	// run-to-run spread.
	clients := max(1, runtime.NumCPU()-1)
	if o.trace {
		return traceServe(o, cells, clients)
	}
	ph, _ := servePhase(cells, clients, mixJobs(o.seed, clients, len(cells)), o.seconds, nil)
	m, err := endToEnd(setupS, ph.sessions, ph.ops, ph.wall.Seconds(), ph.lat)
	if err != nil {
		return result{}, nil, err
	}
	return ph.finish(m), nil, nil
}

// mixJobs gives each client its own seeded schedule, without end.
func mixJobs(seed uint64, clients, cells int) func(client int) func() (job, bool) {
	return func(client int) func() (job, bool) {
		s := newSchedule(seed, client, cells)
		return func() (job, bool) { return s.next(), true }
	}
}

// served is what one traced served phase recorded beyond its totals.
type served struct {
	sessions     []servedSession
	peakInflight int
	peakGroups   int
}

func (s *served) add(o served) {
	s.sessions = append(s.sessions, o.sessions...)
	s.peakInflight = max(s.peakInflight, o.peakInflight)
	s.peakGroups = max(s.peakGroups, o.peakGroups)
}

// servedSession is one completed session of a traced phase.
type servedSession struct {
	id, cell int
	run      stats.Run // final served stats
}

// servePhase drives an in-process serve.Server through ServeHTTP with a
// closed loop of clients: each waits for every reply and starts its next
// session as soon as the last one is deleted, until d has passed. jobs
// yields each client's session sequence. A traced phase (tr non-nil)
// records spans into tr, keeps the completed sessions, and samples the
// server's peak in-flight requests and SHU groups.
func servePhase(cells []serveCell, clients int, jobs func(client int) func() (job, bool), d time.Duration, tr *tracer) (phase, served) {
	srv := serve.New(serve.Options{})
	defer srv.Close()
	var out served
	traced := tr != nil
	start := time.Now()
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if traced {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					st := srv.Stats()
					out.peakInflight = max(out.peakInflight, st.InFlight)
					out.peakGroups = max(out.peakGroups, st.GroupsInUse)
				}
			}
		}()
	}

	cs := make([]*client, clients)
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for i := range cs {
		c := &client{h: srv}
		if traced {
			c.tr = newTracer(tr.epoch)
			c.tr.ids = (i + 1) << 20 // disjoint ID ranges per client
		}
		cs[i] = c
		next := jobs(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j, ok := next()
				if !ok {
					return
				}
				id := c.tr.newID()
				run, err := c.session(id, cells[j.cell], j.tenant)
				if err != nil {
					continue
				}
				c.done++
				c.ops += cells[j.cell].ops
				if traced {
					c.kept = append(c.kept, servedSession{id: id, cell: j.cell, run: run})
				}
			}
		}()
	}
	wg.Wait()
	var ph phase
	ph.wall = time.Since(start)
	close(stop)
	sampler.Wait()
	for _, c := range cs {
		ph.tally.merge(c.tally)
		ph.lat.merge(c.lat)
		ph.sessions += c.done
		ph.ops += c.ops
		if traced {
			tr.absorb(c.tr)
			out.sessions = append(out.sessions, c.kept...)
		}
	}
	return ph, out
}

// client issues requests to the server's handler directly: no listener,
// no port. One goroutine owns a client.
type client struct {
	h     http.Handler
	tr    *tracer
	tally tally
	lat   latencies
	done  int
	ops   uint64
	kept  []servedSession
}

// do sends one request and decodes a 2xx reply into out; check, when
// given, validates the decoded reply. A non-2xx reply, an undecodable
// body or a failed check counts as one failed operation.
func (c *client) do(id, parent int, name, method, path string, body, out any, check func() error) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	sp := c.tr.begin(id, name, parent)
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	var err error
	switch {
	case rec.Code < 200 || rec.Code > 299:
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	case out != nil:
		if err = json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			err = fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		} else if check != nil {
			err = check()
		}
	}
	c.tr.end(sp)
	c.tally.add(err)
	return err
}

// session runs one served session: create, step in slices of sliceCycles
// until done, read the final stats, delete. The final stats must equal
// the cell's serial result when the cell has one. A session that fails
// part-way is still deleted.
func (c *client) session(id int, sc serveCell, tenant string) (stats.Run, error) {
	root := c.tr.begin(id, "session", -1)
	defer c.tr.end(root)
	t0 := time.Now()
	spec := sc.spec
	spec.Tenant = tenant
	var info serve.SessionInfo
	if err := c.do(id, root, "serve.create", http.MethodPost, "/v1/sessions", spec, &info, nil); err != nil {
		return stats.Run{}, err
	}
	create := time.Since(t0)
	path := "/v1/sessions/" + info.ID
	var st serve.StatsResponse
	err := func() error {
		for done := false; !done; {
			ts := time.Now()
			var sr serve.StepResponse
			if err := c.do(id, root, "serve.step", http.MethodPost, path+"/step", serve.StepRequest{Cycles: sliceCycles}, &sr, nil); err != nil {
				return err
			}
			c.lat.step = append(c.lat.step, msSince(ts))
			done = sr.Done
		}
		return c.do(id, root, "serve.stats", http.MethodGet, path+"/stats", nil, &st, func() error {
			if !st.Done || st.Error != "" {
				return fmt.Errorf("%s: session %s ended unfinished (%q)", sc.key(), info.ID, st.Error)
			}
			if sc.want == nil {
				return nil
			}
			return sameRun(sc.key(), st.Stats, sc.want)
		})
	}()
	if derr := c.do(id, root, "serve.delete", http.MethodDelete, path, nil, nil, nil); err == nil {
		err = derr
	}
	if err != nil {
		return stats.Run{}, err
	}
	c.lat.create = append(c.lat.create, ms(create))
	return st.Stats, nil
}

// traceServe is the traced run of serve-mix: untraced and traced served
// chunks in turn, half the budget each, then the serial replays, then the
// per-layer probes over the serve-mix cells.
func traceServe(o options, cells []serveCell, clients int) (result, *traceReport, error) {
	chunk := o.seconds / (2 * traceChunks)
	tr := newTracer(time.Now())
	var plain, traced phase
	var sv served
	for i := uint64(0); i < traceChunks; i++ {
		p, _ := servePhase(cells, clients, mixJobs(o.seed+2*i, clients, len(cells)), chunk, nil)
		plain.add(p)
		q, s := servePhase(cells, clients, mixJobs(o.seed+2*i+1, clients, len(cells)), chunk, tr)
		traced.add(q)
		sv.add(s)
	}
	var t tally
	t.merge(plain.tally)
	t.merge(traced.tally)
	m := map[string]metric{
		"trace.overhead_pct": {(plain.opsPerSec()/traced.opsPerSec() - 1) * 100, "%"},
	}
	work, err := serveLayerMetrics(cells, sv, tr, &t, m)
	if err != nil {
		return result{}, nil, err
	}
	stepMetrics(m, tr.durations("replay.step", nil), work, 1)

	var probes []probeCase
	for _, c := range cells {
		cfg, err := c.spec.Config()
		if err != nil {
			return result{}, nil, err
		}
		probes = append(probes, probeCase{c.spec.Workload, cfg, c.want})
	}
	if _, err := layerProbes(probes, tr, &t, m); err != nil {
		return result{}, nil, err
	}
	if err := checkLayerMetrics(m); err != nil {
		return result{}, nil, err
	}
	return t.finish(m), tr.report(o, m), nil
}

// servedLayers serves each cell once, from one client, in a traced phase
// and reports the serving-layer metrics into m. Cells without an expected
// result are checked against their serial replay.
func servedLayers(cells []serveCell, tr *tracer, t *tally, m map[string]metric) error {
	jobs := func(client int) func() (job, bool) {
		k := 0
		return func() (job, bool) {
			if k == len(cells) {
				return job{}, false
			}
			k++
			return job{cell: k - 1, tenant: "tenant-0"}, true
		}
	}
	ph, sv := servePhase(cells, 1, jobs, hardCap, tr)
	t.merge(ph.tally)
	_, err := serveLayerMetrics(cells, sv, tr, t, m)
	return err
}

// replaysPerCell bounds how many served sessions of each cell are
// replayed serially.
const replaysPerCell = 4

// serveLayerMetrics reports the per-route ServeHTTP times and the sampled
// peaks of a traced served phase, and replays up to replaysPerCell served
// sessions of each cell serially through driver.Session, slice for slice,
// to split the served step into simulation and serving-layer self time.
// Each replay must end with the served session's final stats. It returns
// the replays' simulated work.
func serveLayerMetrics(cells []serveCell, sv served, tr *tracer, t *tally, m map[string]metric) (stats.Run, error) {
	m["serve.create_ms"] = metric{median(tr.durations("serve.create", nil)), "ms"}
	m["serve.step_ms"] = metric{median(tr.durations("serve.step", nil)), "ms"}
	m["serve.stats_ms"] = metric{median(tr.durations("serve.stats", nil)), "ms"}
	m["serve.delete_ms"] = metric{median(tr.durations("serve.delete", nil)), "ms"}
	m["serve.peak_inflight"] = metric{float64(sv.peakInflight), "count"}
	m["serve.peak_groups"] = metric{float64(sv.peakGroups), "count"}

	var work stats.Run
	replayed := map[int]bool{}
	perCell := map[int]int{}
	for _, s := range sv.sessions {
		if perCell[s.cell] == replaysPerCell {
			continue
		}
		perCell[s.cell]++
		err := replay(cells[s.cell], s, tr)
		t.add(err)
		if err == nil {
			replayed[s.id] = true
			addWork(&work, s.run)
		}
	}
	if len(replayed) == 0 {
		return work, fmt.Errorf("no served session could be replayed; first failure: %v", t.firstErr)
	}
	keep := func(id int) bool { return replayed[id] }
	m["serve.step_self_ms"] = metric{mean(tr.durations("serve.step", keep)) - mean(tr.durations("replay.step", keep)), "ms"}
	return work, nil
}

// replay reruns a served session serially through driver.Session with the
// served slice size, under the served session's span ID, and checks that
// it ends with the served final stats.
func replay(sc serveCell, s servedSession, tr *tracer) error {
	cfg, err := sc.spec.Config()
	if err != nil {
		return err
	}
	root := tr.begin(s.id, "replay", -1)
	defer tr.end(root)
	ds, err := driver.NewSession(sc.spec.Workload, workload.SizeTest, cfg)
	if err != nil {
		return fmt.Errorf("replay %s: %w", sc.key(), err)
	}
	defer ds.Close()
	for done := false; !done; {
		sp := tr.begin(s.id, "replay.step", root)
		done, _ = ds.Step(sliceCycles)
		tr.end(sp)
	}
	run, err := ds.Result()
	if err != nil {
		return fmt.Errorf("replay %s: %w", sc.key(), err)
	}
	want, err := json.Marshal(s.run)
	if err != nil {
		return err
	}
	return sameRun("replay "+sc.key(), run, want)
}
