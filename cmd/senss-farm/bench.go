package main

// Every BENCH_*.json trajectory record is written here, by five
// subcommands sharing one record header (benchHeader), one JSON writer
// (writeRecord over emitJSONTo), one machine geometry
// (senss.BenchConfig) and one timed-simulation loop (timeSim):
//
//	bench         cold serial vs parallel Figure 6 sweep  -> BENCH_farm.json
//	bench-sim     raw simulator throughput per workload   -> BENCH_sim.json
//	bench-check   bench-sim re-measured against BENCH_sim.json
//	bench-crypto  crypto backends, micro and end to end   -> BENCH_crypto.json
//	bench-serve   sessions/sec through senss-serve's API  -> BENCH_serve.json

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"senss"
	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/crypto/cbcmac"
	"senss/internal/farm"
	"senss/internal/rng"
	"senss/internal/serve"
)

// benchHeader opens every BENCH record: what was measured, when, and how
// many host CPUs the wall-clock numbers had.
type benchHeader struct {
	Benchmark  string `json:"benchmark"`
	Date       string `json:"date"`
	HostCPUs   int    `json:"host_cpus"`
	Gomaxprocs int    `json:"gomaxprocs"`
}

func newBenchHeader(benchmark string) benchHeader {
	return benchHeader{
		Benchmark:  benchmark,
		Date:       time.Now().UTC().Format(time.RFC3339),
		HostCPUs:   runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
	}
}

// writeRecord writes one BENCH record, or a list of them, to path.
func writeRecord(path string, v any) error {
	var buf bytes.Buffer
	if err := emitJSONTo(&buf, v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// noArgs rejects arguments to a bench subcommand that takes none.
func noArgs(cmd string, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("%s takes no arguments, got %q", cmd, args)
	}
	return nil
}

// simTiming is one timed simulation: totals over the measured runs, and
// the host heap traffic they caused.
type simTiming struct {
	ops, cycles    uint64 // simulated memory operations and cycles
	seconds        float64
	mallocs, bytes uint64
}

// timeSim is the one loop that times simulated runs for a BENCH record:
// a warm-up run (page-in, code layout), then iters measured runs of the
// workload at test scale on cfg.
func timeSim(workload string, cfg senss.Config, iters int) (simTiming, error) {
	if _, err := senss.RunWorkload(workload, senss.SizeTest, cfg); err != nil {
		return simTiming{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var t simTiming
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		run, err := senss.RunWorkload(workload, senss.SizeTest, cfg)
		if err != nil {
			return simTiming{}, err
		}
		t.ops += run.Loads + run.Stores + run.RMWs
		t.cycles += run.Cycles
	}
	t.seconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	t.mallocs = ms1.Mallocs - ms0.Mallocs
	t.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	return t, nil
}

// farmBenchReport is the BENCH_farm.json record: cold-cache serial vs
// parallel wall-clock for the Figure 6 sweep, plus the warm-cache replay.
type farmBenchReport struct {
	benchHeader
	Size            string  `json:"size"`
	Jobs            int     `json:"jobs"`
	Workers         int     `json:"workers"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	WarmSeconds     float64 `json:"warm_seconds"`
	WarmHitRate     float64 `json:"warm_hit_rate"`
}

// cmdBench times the test-scale Figure 6 sweep cold on one worker, cold
// on one worker per GOMAXPROCS, and warm, and writes BENCH_farm.json.
func cmdBench(args []string) error {
	if err := noArgs("bench", args); err != nil {
		return err
	}
	w := runtime.GOMAXPROCS(0)
	if w == 1 {
		fmt.Fprintln(os.Stderr, "bench: warning: GOMAXPROCS=1 — the parallel phase cannot "+
			"beat serial on this host; read speedup as a ceiling of 1.0, not a regression")
	}

	// The job set is enumerated once; each phase gets a fresh
	// memory-only farm so every timing starts cold.
	jobs, err := senss.NewHarnessOn(senss.SizeTest, farm.NewMem(1)).FigureJobs(6)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "bench: %d jobs, cold serial...\n", len(jobs))
	serial := farm.NewMem(1)
	t0 := time.Now()
	if err := serial.Warm(jobs); err != nil {
		return err
	}
	serialDur := time.Since(t0)

	fmt.Fprintf(os.Stderr, "bench: cold parallel (%d workers)...\n", w)
	par := farm.NewMem(w)
	t0 = time.Now()
	if err := par.Warm(jobs); err != nil {
		return err
	}
	parallelDur := time.Since(t0)

	before := par.Cache().Stats()
	t0 = time.Now()
	if err := par.Warm(jobs); err != nil {
		return err
	}
	warmDur := time.Since(t0)
	after := par.Cache().Stats()
	hitRate := float64(after.Hits-before.Hits) / float64(len(jobs))

	report := farmBenchReport{
		benchHeader:     newBenchHeader("farm-fig6-sweep"),
		Size:            "test",
		Jobs:            len(jobs),
		Workers:         w,
		SerialSeconds:   serialDur.Seconds(),
		ParallelSeconds: parallelDur.Seconds(),
		Speedup:         serialDur.Seconds() / parallelDur.Seconds(),
		WarmSeconds:     warmDur.Seconds(),
		WarmHitRate:     hitRate,
	}
	const out = "BENCH_farm.json"
	if err := writeRecord(out, report); err != nil {
		return err
	}
	fmt.Printf("serial %.2fs, parallel %.2fs (%d workers) = %.2fx, warm replay %.3fs (hit rate %.2f) -> %s\n",
		report.SerialSeconds, report.ParallelSeconds, w, report.Speedup, report.WarmSeconds, hitRate, out)
	return nil
}

// simBenchReport is one BENCH_sim.json trajectory point: raw substrate
// throughput (simulated memory operations and cycles per host second) and
// the host-side allocation rate per simulated operation — the number the
// hotpath discipline (DESIGN.md section 13) exists to keep down. The file
// holds one record per swept workload at the 4-processor bench geometry,
// plus one single-processor engine record (see benchSimJobs).
type simBenchReport struct {
	benchHeader
	Workload     string  `json:"workload"`
	Procs        int     `json:"procs"`
	Iterations   int     `json:"iterations"`
	Seconds      float64 `json:"seconds"`
	SimMemOps    uint64  `json:"sim_mem_ops"`
	SimCycles    uint64  `json:"sim_cycles"`
	OpsPerSecond float64 `json:"ops_per_second"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

// benchSimProcs is the multiprocessor bench geometry's processor count,
// matching BenchmarkSimulator in bench_test.go.
const benchSimProcs = 4

// simBenchJob names one measurement of the sweep.
type simBenchJob struct {
	Workload string
	Procs    int
}

// benchSimJobs returns the sweep's job list: every workload at the
// 4-processor bench geometry, then one single-processor record. The
// 1-proc row isolates raw engine dispatch throughput — with one runnable
// proc there are no cross-proc scheduler handoffs and no bus contention,
// so it tracks the scheduler fast path that multiprocessor rows dilute
// with (simulated) lock and arbitration traffic.
func benchSimJobs(names []string) []simBenchJob {
	jobs := make([]simBenchJob, 0, len(names)+1)
	for _, n := range names {
		jobs = append(jobs, simBenchJob{Workload: n, Procs: benchSimProcs})
	}
	jobs = append(jobs, simBenchJob{Workload: "ocean", Procs: 1})
	return jobs
}

// measureSimBench times one bench-sim record on the unprotected machine
// at the bench geometry.
func measureSimBench(job simBenchJob, iters int) (simBenchReport, error) {
	t, err := timeSim(job.Workload, senss.BenchConfig(job.Procs), iters)
	if err != nil {
		return simBenchReport{}, err
	}
	return simBenchReport{
		benchHeader:  newBenchHeader("sim-throughput"),
		Workload:     job.Workload,
		Procs:        job.Procs,
		Iterations:   iters,
		Seconds:      t.seconds,
		SimMemOps:    t.ops,
		SimCycles:    t.cycles,
		OpsPerSecond: float64(t.ops) / t.seconds,
		AllocsPerOp:  float64(t.mallocs) / float64(t.ops),
		BytesPerOp:   float64(t.bytes) / float64(t.ops),
	}, nil
}

// benchSimWorkloads resolves the -workloads flag into a validated name
// list ("all" means every built-in workload).
func benchSimWorkloads(list string) ([]string, error) {
	if list == "all" {
		return senss.WorkloadNames(), nil
	}
	var names []string
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if err := validWorkload(n); err != nil {
			return nil, err
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("empty workload list")
	}
	return names, nil
}

// validWorkload rejects an unknown -workloads name before any warmup
// work, so a typo fails fast with the available names instead of partway
// into a measurement.
func validWorkload(name string) error {
	names := senss.WorkloadNames()
	for _, n := range names {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (available: %s)", name, strings.Join(names, ", "))
}

func cmdBenchSim(args []string) error {
	fs := flag.NewFlagSet("senss-farm bench-sim", flag.ExitOnError)
	list := fs.String("workloads", "all", `comma-separated workloads to sweep, or "all"`)
	iters := fs.Int("iters", 5, "measured repetitions per record")
	out := fs.String("out", "BENCH_sim.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names, err := benchSimWorkloads(*list)
	if err != nil {
		return err
	}

	var reports []simBenchReport
	for _, job := range benchSimJobs(names) {
		fmt.Fprintf(os.Stderr, "bench-sim: %s procs=%d (%d iters)...\n", job.Workload, job.Procs, *iters)
		rep, err := measureSimBench(job, *iters)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s procs=%d  %8d sim mem ops in %6.2fs = %9.0f ops/s, %.2f allocs/op, %.1f bytes/op\n",
			rep.Workload, rep.Procs, rep.SimMemOps, rep.Seconds, rep.OpsPerSecond, rep.AllocsPerOp, rep.BytesPerOp)
		reports = append(reports, rep)
	}
	if err := writeRecord(*out, reports); err != nil {
		return err
	}
	fmt.Printf("%d records -> %s\n", len(reports), *out)
	return nil
}

// benchCheckThreshold is the fraction of the committed ops/sec a fresh
// measurement must reach; below it bench-check fails the build.
const benchCheckThreshold = 0.85

// readSimBench loads a BENCH_sim.json record list.
func readSimBench(path string) ([]simBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reports []simBenchReport
	if err := json.Unmarshal(data, &reports); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return reports, nil
}

// cmdBenchCheck re-measures every committed BENCH_sim.json record and
// fails on a >15% ops/sec regression — the performance ratchet guarding
// the engine hot path.
func cmdBenchCheck(args []string) error {
	if err := noArgs("bench-check", args); err != nil {
		return err
	}
	baseline, err := readSimBench("BENCH_sim.json")
	if err != nil {
		return err
	}
	const iters = 3
	var fresh []simBenchReport
	for _, want := range baseline {
		fmt.Fprintf(os.Stderr, "bench-check: %s procs=%d...\n", want.Workload, want.Procs)
		got, err := measureSimBench(simBenchJob{Workload: want.Workload, Procs: want.Procs}, iters)
		if err != nil {
			return err
		}
		fresh = append(fresh, got)
	}
	lines, err := checkSimBench(baseline, fresh)
	for _, l := range lines {
		fmt.Println(l)
	}
	return err
}

// checkSimBench is bench-check's verdict. Every committed record needs a
// fresh record of the same workload and processor count that reaches
// benchCheckThreshold of the committed ops/sec. It returns one report
// line per committed record, and an error naming every regression.
func checkSimBench(baseline, fresh []simBenchReport) ([]string, error) {
	got := make(map[simBenchJob]simBenchReport, len(fresh))
	for _, r := range fresh {
		got[simBenchJob{Workload: r.Workload, Procs: r.Procs}] = r
	}
	var lines, failures []string
	for _, want := range baseline {
		g, ok := got[simBenchJob{Workload: want.Workload, Procs: want.Procs}]
		if !ok {
			return lines, fmt.Errorf("%s procs=%d: no fresh measurement", want.Workload, want.Procs)
		}
		ratio := g.OpsPerSecond / want.OpsPerSecond
		status := "ok"
		if ratio < benchCheckThreshold {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s procs=%d: %.0f ops/s vs committed %.0f (%.0f%%)",
				want.Workload, want.Procs, g.OpsPerSecond, want.OpsPerSecond, 100*ratio))
		}
		lines = append(lines, fmt.Sprintf("%-12s procs=%d  %9.0f ops/s vs committed %9.0f  (%3.0f%%)  %s",
			want.Workload, want.Procs, g.OpsPerSecond, want.OpsPerSecond, 100*ratio, status))
	}
	if len(failures) > 0 {
		return lines, fmt.Errorf("ops/sec regressed >%.0f%% on %d record(s):\n  %s",
			100*(1-benchCheckThreshold), len(failures), strings.Join(failures, "\n  "))
	}
	return lines, nil
}

// backendReport is one crypto backend's row of BENCH_crypto.json.
type backendReport struct {
	Name string `json:"name"`
	// BlockEncryptMBps is raw single-block AES throughput.
	BlockEncryptMBps float64 `json:"block_encrypt_mbps"`
	// PadStreamMBps is the memsec kernel: four AES_K(addr‖seq‖i) blocks
	// per 64-byte line.
	PadStreamMBps float64 `json:"pad_stream_mbps"`
	// CBCMACMBps is the Eq. (1) authentication chain.
	CBCMACMBps float64 `json:"cbcmac_mbps"`
	// E2ESimOpsPerSecond is simulated memory operations per host second
	// for a fully secured (bus+mem) run under this backend.
	E2ESimOpsPerSecond float64 `json:"e2e_sim_ops_per_second"`
	// E2ECycles pins cross-backend fidelity: simulated cycle counts must
	// be byte-identical for every backend.
	E2ECycles uint64 `json:"e2e_sim_cycles"`
}

// cryptoBenchReport is the BENCH_crypto.json record.
type cryptoBenchReport struct {
	benchHeader
	Quick    bool            `json:"quick"`
	Workload string          `json:"workload"`
	Backends []backendReport `json:"backends"`
	// StdlibBlockSpeedup is stdlib/ref block-encrypt throughput: the
	// AES-NI path against the table-based reference.
	StdlibBlockSpeedup float64 `json:"stdlib_block_speedup"`
}

// cmdBenchCrypto measures every registered crypto backend (gocryptfs
// `speed` style): raw block encryption, the memsec pad stream, the
// chained CBC-MAC, and end-to-end secured simulation. The backend never
// affects simulated time (the SHU's AES is charged in modeled cycles), so
// these are host wall-clock numbers: they bound how fast the simulator
// runs, not what the modeled hardware does.
func cmdBenchCrypto(args []string) error {
	fs := flag.NewFlagSet("senss-farm bench-crypto", flag.ExitOnError)
	quick := fs.Bool("quick", false, "short measurement intervals (CI smoke; numbers are noisy)")
	out := fs.String("out", "BENCH_crypto.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	const workload = "ocean"
	measure, e2eIters := 400*time.Millisecond, 3
	if *quick {
		measure, e2eIters = 40*time.Millisecond, 1
	}

	report := cryptoBenchReport{Quick: *quick, Workload: workload}
	var refMBps, stdlibMBps float64
	for _, backend := range crypto.Backends() {
		br := backendReport{Name: backend}
		br.BlockEncryptMBps = benchBlockEncrypt(backend, measure)
		br.PadStreamMBps = benchPadStream(backend, measure)
		br.CBCMACMBps = benchCBCMAC(backend, measure)
		cfg := senss.BenchConfig(4)
		cfg.Security.Mode = senss.SecurityBusMem
		cfg.Security.Senss.Backend = backend
		t, err := timeSim(workload, cfg, e2eIters)
		if err != nil {
			return err
		}
		br.E2ESimOpsPerSecond = float64(t.ops) / t.seconds
		// Simulation is deterministic: every measured run charges the
		// same cycles, so the per-run count is the mean.
		br.E2ECycles = t.cycles / uint64(e2eIters)
		report.Backends = append(report.Backends, br)

		fmt.Printf("%-8s blockEncrypt %9.1f MB/s   padStream %9.1f MB/s   cbcmac %9.1f MB/s   e2e %9.0f simOps/s\n",
			backend, br.BlockEncryptMBps, br.PadStreamMBps, br.CBCMACMBps, br.E2ESimOpsPerSecond)

		switch backend {
		case crypto.Ref:
			refMBps = br.BlockEncryptMBps
		case crypto.Stdlib:
			stdlibMBps = br.BlockEncryptMBps
		}
	}
	if refMBps > 0 {
		report.StdlibBlockSpeedup = stdlibMBps / refMBps
		fmt.Printf("stdlib/ref block-encrypt speedup: %.1fx\n", report.StdlibBlockSpeedup)
	}
	if err := checkCycleIdentity(report.Backends); err != nil {
		return err
	}
	report.benchHeader = newBenchHeader("crypto-backends")
	if err := writeRecord(*out, report); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// checkCycleIdentity is the cross-backend fidelity gate: every backend
// must simulate exactly the same cycles.
func checkCycleIdentity(rows []backendReport) error {
	for _, br := range rows {
		if br.E2ECycles != rows[0].E2ECycles {
			return fmt.Errorf("backend %s simulated %d cycles, %s simulated %d — backends must be cycle-identical",
				br.Name, br.E2ECycles, rows[0].Name, rows[0].E2ECycles)
		}
	}
	return nil
}

// throughput runs body (which processes bytesPerCall bytes) in batches
// until the target measurement time elapses, returning MB/s (1 MB = 1e6
// bytes, matching gocryptfs speed).
func throughput(target time.Duration, bytesPerCall int, body func()) float64 {
	const batch = 4096
	var calls int
	t0 := time.Now()
	for time.Since(t0) < target {
		for i := 0; i < batch; i++ {
			body()
		}
		calls += batch
	}
	secs := time.Since(t0).Seconds()
	return float64(calls) * float64(bytesPerCall) / secs / 1e6
}

func benchBlockEncrypt(backend string, target time.Duration) float64 {
	r := rng.New(0xb10c)
	c := crypto.MustBackend(backend, aes.Block(r.Block16()))
	in := aes.Block(r.Block16())
	var sink aes.Block
	return throughput(target, aes.BlockSize, func() {
		sink = c.Encrypt(in)
		in[0] = sink[0] // serialize: next input depends on last output
	})
}

// benchPadStream mirrors memsec.Layer.pad: four counter-derived AES
// blocks per 64-byte line.
func benchPadStream(backend string, target time.Duration) float64 {
	r := rng.New(0x9ad5)
	c := crypto.MustBackend(backend, aes.Block(r.Block16()))
	const lineBytes = 64
	var addr, seq uint64 = 0x1000, 1
	var sink byte
	mbps := throughput(target, lineBytes, func() {
		for i := 0; i*aes.BlockSize < lineBytes; i++ {
			b := c.Encrypt(aes.BlockFromUint64(addr, seq<<8|uint64(i)))
			sink ^= b[0]
		}
		addr += lineBytes
		seq++
	})
	_ = sink
	return mbps
}

func benchCBCMAC(backend string, target time.Duration) float64 {
	r := rng.New(0x3ac)
	c := crypto.MustBackend(backend, aes.Block(r.Block16()))
	m := cbcmac.New(c, aes.Block(r.Block16()))
	in := aes.Block(r.Block16())
	return throughput(target, aes.BlockSize, func() {
		m.Update(in)
	})
}

// serveBenchReport is the BENCH_serve.json record.
type serveBenchReport struct {
	benchHeader
	serve.BenchReport
}

// cmdBenchServe starts senss-serve in process on an ephemeral port,
// drives 4 tenants × 16 secured sessions through its HTTP API, checks
// that the group and session books drained to zero, and writes the sessions/sec, step-latency and
// group-occupancy record.
func cmdBenchServe(args []string) error {
	fs := flag.NewFlagSet("senss-farm bench-serve", flag.ExitOnError)
	out := fs.String("out", "BENCH_serve.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv := serve.New(serve.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hdr := newBenchHeader("serve-sessions")
	rep, err := serve.RunBench(serve.BenchOptions{BaseURL: ts.URL, Tenants: 4, SessionsPerTenant: 16})
	if err != nil {
		return err
	}
	if st := srv.Stats(); st.GroupsInUse != 0 || st.Sessions != 0 {
		return fmt.Errorf("bench-serve: books did not drain: groups=%d sessions=%d", st.GroupsInUse, st.Sessions)
	}
	if err := writeRecord(*out, serveBenchReport{benchHeader: hdr, BenchReport: rep}); err != nil {
		return err
	}
	fmt.Printf("bench-serve: %d sessions in %.1fms (%.1f/sec), step p50 %.2fms p99 %.2fms, peak groups %d/%d -> %s\n",
		rep.Completed, rep.WallMS, rep.SessionsPerSec, rep.StepP50MS, rep.StepP99MS,
		rep.PeakGroups, rep.GroupCapacity, *out)
	return nil
}
