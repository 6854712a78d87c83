package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"senss/internal/bus"
	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/crypto/cbcmac"
	"senss/internal/crypto/sha256"
	"senss/internal/integrity"
	"senss/internal/machine"
	"senss/internal/mem"
	"senss/internal/memsec"
	"senss/internal/sim"
	"senss/internal/stats"
	"senss/internal/workload"
)

// perLayer names every per-layer metric a traced run reports, with its
// unit. BENCHMARK.json lists the same names.
var perLayer = []struct{ name, unit string }{
	{"machine.new_ms", "ms"},
	{"workload.setup_ms", "ms"},
	{"machine.start_ms", "ms"},
	{"machine.start_alloc_mb", "MB"},
	{"integrity.build_ms", "ms"},
	{"integrity.build_alloc_mb", "MB"},
	{"memsec.encrypt_all_ms", "ms"},
	{"crypto.sha256_line_ns", "ns"},
	{"driver.step_ms", "ms"},
	{"driver.ns_per_sim_op", "ns"},
	{"driver.ns_per_sim_cycle", "ns"},
	{"bus.ns_per_txn", "ns"},
	{"sim.handoff_ns", "ns"},
	{"sim.sleep_ns", "ns"},
	{"crypto.encrypt_ns.ref", "ns"},
	{"crypto.encrypt_ns.stdlib", "ns"},
	{"crypto.cbcmac_ns_per_block", "ns"},
	{"bus.txns", "count"},
	{"bus.c2c", "count"},
	{"bus.arb_wait_cycles", "cycles"},
	{"cache.l1d_misses", "count"},
	{"cache.l2_misses", "count"},
	{"core.auth_msgs", "count"},
	{"core.mask_stall_cycles", "cycles"},
	{"memsec.pad_hit_ratio", "ratio"},
	{"integrity.hash_ops", "count"},
	{"integrity.hash_fetches", "count"},
	{"serve.create_ms", "ms"},
	{"serve.step_ms", "ms"},
	{"serve.stats_ms", "ms"},
	{"serve.delete_ms", "ms"},
	{"serve.step_self_ms", "ms"},
	{"serve.peak_inflight", "count"},
	{"serve.peak_groups", "count"},
	{"trace.overhead_pct", "%"},
}

// perLayerNames lists the names of perLayer in order.
var perLayerNames = func() []string {
	var out []string
	for _, l := range perLayer {
		out = append(out, l.name)
	}
	return out
}()

// checkLayerMetrics verifies a traced run produced exactly the per-layer
// metrics, each with its declared unit and a finite value.
func checkLayerMetrics(m map[string]metric) error {
	for _, l := range perLayer {
		got, ok := m[l.name]
		if !ok {
			return fmt.Errorf("traced run did not measure %s", l.name)
		}
		if got.Unit != l.unit {
			return fmt.Errorf("%s: unit %q, want %q", l.name, got.Unit, l.unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("%s: value %v is not finite", l.name, got.Value)
		}
	}
	if len(m) != len(perLayer) {
		return fmt.Errorf("traced run measured %d metrics, want %d", len(m), len(perLayer))
	}
	return nil
}

// microReps is how often each layer micro-measurement repeats; the
// reported value is the median.
const microReps = 5

// probeCase is one simulation the layer probes assemble by hand.
type probeCase struct {
	kernel string
	cfg    machine.Config
	want   []byte // expected stats.Run as compact JSON
}

// layerProbes measures the assembly layers, the simulated work counts and
// the layer micro-benchmarks for the given cases, adding them to m. It
// returns the probes' runs, one per case.
func layerProbes(cases []probeCase, tr *tracer, t *tally, m map[string]metric) ([]stats.Run, error) {
	var runs []stats.Run
	var allocs []float64
	var fetches uint64
	for _, c := range cases {
		p, err := probe(c, tr)
		t.add(err)
		if err != nil {
			continue
		}
		runs = append(runs, p.run)
		allocs = append(allocs, p.startAllocMB)
		fetches += p.hashFetches
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("every layer probe failed; first: %v", t.firstErr)
	}
	m["machine.new_ms"] = metric{median(tr.durations("machine.new", nil)), "ms"}
	m["workload.setup_ms"] = metric{median(tr.durations("workload.setup", nil)), "ms"}
	m["machine.start_ms"] = metric{median(tr.durations("machine.start", nil)), "ms"}
	m["machine.start_alloc_mb"] = metric{median(allocs), "MB"}
	countMetrics(m, runs, fetches)

	// Protection-layer set-up over each distinct kernel's memory image,
	// once per kernel; the median over kernels is reported.
	var buildMS, buildMB, encMS []float64
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.kernel] {
			continue
		}
		seen[c.kernel] = true
		img, err := captureImage(c.kernel, c.cfg)
		if err != nil {
			return nil, err
		}
		d, mb := treeBuild(img)
		buildMS = append(buildMS, d)
		buildMB = append(buildMB, mb)
		encMS = append(encMS, encryptAll(img, c.cfg.Procs))
	}
	m["integrity.build_ms"] = metric{median(buildMS), "ms"}
	m["integrity.build_alloc_mb"] = metric{median(buildMB), "MB"}
	m["memsec.encrypt_all_ms"] = metric{median(encMS), "ms"}

	handoff, err := repeat(func() (float64, error) { return handoffNS(100_000) })
	if err != nil {
		return nil, err
	}
	sleep, err := repeat(func() (float64, error) { return sleepNS(1_000_000) })
	if err != nil {
		return nil, err
	}
	m["sim.handoff_ns"] = metric{handoff, "ns"}
	m["sim.sleep_ns"] = metric{sleep, "ns"}
	m["crypto.encrypt_ns.ref"] = metric{repeatNS(func() float64 { return encryptNS(crypto.Ref, 20_000) }), "ns"}
	m["crypto.encrypt_ns.stdlib"] = metric{repeatNS(func() float64 { return encryptNS(crypto.Stdlib, 1_000_000) }), "ns"}
	backend, iters := shuBackend(cases), 200_000
	if backend == crypto.Ref {
		iters = 20_000 // the reference cipher is ~100x slower
	}
	m["crypto.cbcmac_ns_per_block"] = metric{repeatNS(func() float64 { return cbcmacNS(backend, iters) }), "ns"}
	m["crypto.sha256_line_ns"] = metric{repeatNS(func() float64 { return sha256LineNS(200_000) }), "ns"}
	return runs, nil
}

// shuBackend is the block-cipher backend the SHU uses in the secured cases
// (the reference backend when none is secured).
func shuBackend(cases []probeCase) string {
	for _, c := range cases {
		if c.cfg.Security.Mode != machine.SecurityOff {
			return crypto.Canonical(c.cfg.Security.Senss.Backend)
		}
	}
	return crypto.Ref
}

// probed is what one hand-assembled simulation measured.
type probed struct {
	run          stats.Run
	startAllocMB float64
	hashFetches  uint64
}

// probe assembles one simulation stage by stage through the public
// machine and workload API — machine.New, Workload.Setup, Machine.Start —
// timing each stage, runs it to completion with a zero-cycle bus hook that
// counts hash-tree lines fetched from memory, and checks the result.
func probe(c probeCase, tr *tracer) (probed, error) {
	var p probed
	w, err := workload.New(c.kernel, workload.SizeTest)
	if err != nil {
		return p, err
	}
	id := tr.newID()
	root := tr.begin(id, "probe", -1)
	defer tr.end(root)
	sp := tr.begin(id, "machine.new", root)
	m := machine.New(c.cfg)
	tr.end(sp)
	counter := &hashFetchCounter{}
	m.Bus.AttachHook(counter)
	sp = tr.begin(id, "workload.setup", root)
	progs := w.Setup(m, c.cfg.Procs)
	tr.end(sp)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = tr.begin(id, "machine.start", root)
	err = m.Start(progs)
	tr.end(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		return p, fmt.Errorf("probe %s: %w", c.kernel, err)
	}
	p.startAllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	sp = tr.begin(id, "machine.step", root)
	_, err = m.Step(math.MaxUint64)
	tr.end(sp)
	p.run = m.Collect()
	p.run.Workload = c.kernel
	p.hashFetches = counter.n
	if err == nil {
		if halted, why := m.Halted(); halted {
			err = fmt.Errorf("halted: %s", why)
		} else {
			err = w.Validate(m)
		}
	}
	m.Shutdown()
	if err != nil {
		return p, fmt.Errorf("probe %s: %w", c.kernel, err)
	}
	return p, sameRun("probe "+c.kernel, p.run, c.want)
}

// hashFetchCounter is a bus hook charging zero cycles that counts
// hash-tree lines supplied by memory. stats.Run.HashFetches is not filled
// in by machine.Collect, so the traced run counts them here.
type hashFetchCounter struct{ n uint64 }

func (h *hashFetchCounter) OnTransaction(_ *sim.Proc, t *bus.Transaction) uint64 {
	if (t.Kind == bus.Rd || t.Kind == bus.RdX) && t.SupplierID == bus.MemorySupplier && t.Addr >= integrity.HashBase {
		h.n++
	}
	return 0
}

// countMetrics reports the simulated work per run, averaged over runs
// (one per cell, so over the workload's uniform cell mix).
func countMetrics(m map[string]metric, runs []stats.Run, fetches uint64) {
	n := float64(len(runs))
	var s stats.Run
	for _, r := range runs {
		s.BusTotal += r.BusTotal
		s.C2C += r.C2C
		s.ArbWaitCyc += r.ArbWaitCyc
		s.L1DMisses += r.L1DMisses
		s.L2Misses += r.L2Misses
		s.AuthMsgs += r.AuthMsgs
		s.MaskStalls += r.MaskStalls
		s.PadHits += r.PadHits
		s.PadMisses += r.PadMisses
		s.HashOps += r.HashOps
	}
	m["bus.txns"] = metric{float64(s.BusTotal) / n, "count"}
	m["bus.c2c"] = metric{float64(s.C2C) / n, "count"}
	m["bus.arb_wait_cycles"] = metric{float64(s.ArbWaitCyc) / n, "cycles"}
	m["cache.l1d_misses"] = metric{float64(s.L1DMisses) / n, "count"}
	m["cache.l2_misses"] = metric{float64(s.L2Misses) / n, "count"}
	m["core.auth_msgs"] = metric{float64(s.AuthMsgs) / n, "count"}
	m["core.mask_stall_cycles"] = metric{float64(s.MaskStalls) / n, "cycles"}
	ratio := 0.0 // no memsec layer, no pad lookups
	if lookups := s.PadHits + s.PadMisses; lookups > 0 {
		ratio = float64(s.PadHits) / float64(lookups)
	}
	m["memsec.pad_hit_ratio"] = metric{ratio, "ratio"}
	m["integrity.hash_ops"] = metric{float64(s.HashOps) / n, "count"}
	m["integrity.hash_fetches"] = metric{float64(fetches) / n, "count"}
}

// dataBase mirrors the machine's bump-allocator origin: workload data
// starts at 64 KiB.
const dataBase = uint64(1) << 16

// image is a kernel's initial memory: every line its set-up wrote.
type image struct {
	addrs []uint64
	lines [][]byte
	size  uint64 // bytes from dataBase to the end of the last line
}

// captureImage lays the kernel out on an unprotected machine of cfg's
// geometry and copies out the lines it initialised.
func captureImage(kernel string, cfg machine.Config) (image, error) {
	w, err := workload.New(kernel, workload.SizeTest)
	if err != nil {
		return image{}, err
	}
	cfg.Security.Mode = machine.SecurityOff
	m := machine.New(cfg)
	w.Setup(m, cfg.Procs)
	var img image
	for _, a := range m.Store.Touched() {
		buf := make([]byte, mem.LineSize)
		m.Store.ReadLine(a, buf)
		img.addrs = append(img.addrs, a)
		img.lines = append(img.lines, buf)
		img.size = a + mem.LineSize - dataBase
	}
	return img, nil
}

// store returns a fresh mem.Store holding the image.
func (img image) store() *mem.Store {
	s := mem.New()
	for i, a := range img.addrs {
		s.WriteLine(a, img.lines[i])
	}
	return s
}

// treeBuild times integrity.New + Tree.Build over a fresh copy of the
// image, returning ms and the MB the build allocates.
func treeBuild(img image) (float64, float64) {
	s := img.store()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	t := integrity.New(sim.NewEngine(), dataBase, img.size, machine.DefaultConfig().Security.Tree)
	t.Build(s, s.ReadLine)
	d := msSince(t0)
	runtime.ReadMemStats(&after)
	return d, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// encryptAll times memsec.New + EncryptAll with the reference backend over
// a fresh copy of the image, in ms.
func encryptAll(img image, procs int) float64 {
	s := img.store()
	t0 := time.Now()
	l := memsec.New(s, crypto.MustBackend(crypto.Ref, aes.BlockFromUint64(1, 2)), procs, machine.DefaultConfig().Security.Memsec)
	l.EncryptAll()
	return msSince(t0)
}

// repeat runs a fallible micro-measurement microReps times; the median.
func repeat(fn func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < microReps; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// repeatNS runs an infallible micro-measurement microReps times; the median.
func repeatNS(fn func() float64) float64 {
	x, _ := repeat(func() (float64, error) { return fn(), nil })
	return x
}

// handoffNS is host ns per cross-proc dispatch: two procs on a bare engine
// alternate Park and Unpark, so every resumption hands the run token to
// the other proc's goroutine.
func handoffNS(iters int) (float64, error) {
	e := sim.NewEngine()
	var a *sim.Proc
	finished := false
	b := e.Spawn("b", func(p *sim.Proc) {
		for {
			p.Park()
			if finished {
				return
			}
			e.Unpark(a)
		}
	})
	a = e.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			e.Unpark(b)
			p.Park()
		}
		finished = true
		e.Unpark(b)
	})
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return 0, fmt.Errorf("handoff probe: %w", err)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(2*iters), nil
}

// sleepNS is host ns per Sleep(1) of a lone proc: one calendar-queue push
// and pop with no handoff.
func sleepNS(iters int) (float64, error) {
	e := sim.NewEngine()
	e.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			p.Sleep(1)
		}
	})
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return 0, fmt.Errorf("sleep probe: %w", err)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters), nil
}

// sink keeps micro-benchmark results live so the compiler cannot drop the
// measured calls.
var sink aes.Block

// encryptNS is host ns per block encryption with the named backend.
func encryptNS(backend string, iters int) float64 {
	c := crypto.MustBackend(backend, aes.BlockFromUint64(1, 2))
	defer c.Zeroize()
	b := aes.BlockFromUint64(3, 4)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		b = c.Encrypt(b)
	}
	d := time.Since(t0)
	sink = b
	return float64(d.Nanoseconds()) / float64(iters)
}

// cbcmacNS is host ns per CBC-MAC block update with the named backend.
func cbcmacNS(backend string, iters int) float64 {
	c := crypto.MustBackend(backend, aes.BlockFromUint64(1, 2))
	defer c.Zeroize()
	mac := cbcmac.New(c, aes.BlockFromUint64(5, 6))
	b := aes.BlockFromUint64(3, 4)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		b = mac.Update(b)
	}
	d := time.Since(t0)
	sink = b
	return float64(d.Nanoseconds()) / float64(iters)
}

// sha256LineNS is host ns per SHA-256 of one 64-byte memory line, the
// integrity tree's hash.
func sha256LineNS(iters int) float64 {
	var line [mem.LineSize]byte
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		sum := sha256.Sum256(line[:])
		line[0] ^= sum[0]
	}
	d := time.Since(t0)
	sink[0] = line[0]
	return float64(d.Nanoseconds()) / float64(iters)
}
