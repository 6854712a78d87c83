// Command senss-farm drives the internal/farm orchestration subsystem
// directly: it runs figure sweeps across a bounded worker pool with a
// persistent content-addressed result cache, reports sweep/cache status,
// garbage-collects stale entries and pre-warms the cache. It is also the
// one producer of the BENCH_*.json trajectory records (bench.go).
//
// Subcommands:
//
//	senss-farm run    -fig all -workers 8 -cache-dir .senss-cache
//	senss-farm warm   -fig 6 -size bench
//	senss-farm status -cache-dir .senss-cache -json
//	senss-farm gc     -cache-dir .senss-cache [-all]
//	senss-farm lint   -cache-dir .senss-cache [-json]
//	senss-farm bench
//	senss-farm bench-sim [-workloads all] [-iters 5] [-out BENCH_sim.json]
//	senss-farm bench-check
//	senss-farm bench-crypto [-quick] [-out BENCH_crypto.json]
//	senss-farm bench-serve [-out BENCH_serve.json]
//
// "lint" runs the senss-lint suite through the same content-addressed
// cache as experiments: the verdict is stored under a hash of the
// analyzer set and every source file, so an unchanged tree is never
// re-analyzed.
//
// Interrupted sweeps are resumable: every completed job is cached and
// recorded in the sweep manifest, so re-running the same command picks
// up from the completed set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"senss"
	"senss/internal/crypto"
	"senss/internal/farm"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "warm":
		err = cmdWarm(args)
	case "status":
		err = cmdStatus(args)
	case "gc":
		err = cmdGC(args)
	case "bench":
		err = cmdBench(args)
	case "bench-sim":
		err = cmdBenchSim(args)
	case "bench-check":
		err = cmdBenchCheck(args)
	case "bench-crypto":
		err = cmdBenchCrypto(args)
	case "bench-serve":
		err = cmdBenchServe(args)
	case "lint":
		err = cmdLint(args)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "senss-farm: unknown subcommand %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "senss-farm: %v\n", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `senss-farm — parallel experiment orchestration with result caching

usage: senss-farm <run|warm|status|gc|lint|bench|bench-sim|bench-check|bench-crypto|bench-serve> [flags]

  run     execute figure sweeps and print their tables
  warm    execute figure sweeps, populating the cache only
  status  report sweep manifests and cache contents
  gc      remove stale/corrupt cache entries (-all wipes everything)
  lint    run the senss-lint suite content-addressed: verdicts cache
          under a hash of the analyzer set + all sources
  bench   measure cold serial vs parallel wall-clock for the Figure 6
          sweep and write the BENCH_farm.json trajectory point
  bench-sim
          measure raw simulator throughput and allocation rate on the
          unprotected machine across every workload and write the
          BENCH_sim.json baseline
  bench-check
          re-measure the BENCH_sim.json workloads and fail on a >15%
          ops/sec regression against the committed records
  bench-crypto
          measure every crypto backend (block encrypt, pad stream,
          CBC-MAC, secured end-to-end run), check the backends are
          cycle-identical, and write BENCH_crypto.json
  bench-serve
          drive 4 tenants x 16 secured sessions through an in-process
          senss-serve, check its books drain, and write BENCH_serve.json

common flags: -fig, -size, -workers, -cache-dir, -json (see <sub> -h)
`)
}

// sweepFlags is the flag set shared by the sweep-running subcommands.
type sweepFlags struct {
	fs       *flag.FlagSet
	fig      *string
	size     *string
	workers  *int
	cacheDir *string
	jsonOut  *bool
	markdown *bool
	backend  *string
}

func newSweepFlags(name string) *sweepFlags {
	fs := flag.NewFlagSet("senss-farm "+name, flag.ExitOnError)
	return &sweepFlags{
		fs:       fs,
		fig:      fs.String("fig", "all", "figure: 6, 7, 8, 9, 10, 11, scale, or all"),
		size:     fs.String("size", "test", "problem scale: test or bench"),
		workers:  fs.Int("workers", 0, "concurrent simulations (0 = one per core)"),
		cacheDir: fs.String("cache-dir", ".senss-cache", "result cache directory (empty = in-memory only)"),
		jsonOut:  fs.Bool("json", false, "emit machine-readable JSON instead of text"),
		markdown: fs.Bool("markdown", false, "emit markdown tables (run only)"),
		backend:  fs.String("crypto", crypto.Ref, "crypto backend for secured runs: ref or stdlib (tables are byte-identical; the backend is part of the cache key)"),
	}
}

func (sf *sweepFlags) parse(args []string) (scale senss.Size, figs []int, err error) {
	if err := sf.fs.Parse(args); err != nil {
		return scale, nil, err
	}
	switch *sf.size {
	case "test":
		scale = senss.SizeTest
	case "bench":
		scale = senss.SizeBench
	default:
		return scale, nil, fmt.Errorf("unknown size %q", *sf.size)
	}
	if !crypto.Known(*sf.backend) {
		return scale, nil, fmt.Errorf("unknown crypto backend %q", *sf.backend)
	}
	switch *sf.fig {
	case "all":
		figs = []int{6, 7, 8, 9, 10, 11}
	case "scale":
		figs = []int{figScale}
	default:
		var n int
		if _, err := fmt.Sscanf(*sf.fig, "%d", &n); err != nil || n < 6 || n > 11 {
			return scale, nil, fmt.Errorf("bad figure %q (6-11, scale, or all)", *sf.fig)
		}
		figs = []int{n}
	}
	return scale, figs, nil
}

// figScale is the pseudo figure number for the E2 scalability sweep.
const figScale = -2

// newHarness assembles the farm (with a stderr progress reporter unless
// JSON output is requested) and the harness on top of it.
func (sf *sweepFlags) newHarness(scale senss.Size) (*senss.Harness, *farm.Farm, error) {
	opts := farm.Options{Workers: *sf.workers, CacheDir: *sf.cacheDir}
	if !*sf.jsonOut {
		opts.Progress = farm.NewReporter(os.Stderr)
	}
	f, err := farm.New(opts)
	if err != nil {
		return nil, nil, err
	}
	h := senss.NewHarnessOn(scale, f)
	h.Crypto = *sf.backend
	return h, f, nil
}

// figTables runs one figure (or the scalability sweep) to completion.
func figTables(h *senss.Harness, n int) ([]*senss.Table, error) {
	if n == figScale {
		return h.Scalability()
	}
	return h.Figure(n)
}

// runReport is the -json document emitted by run and warm.
type runReport struct {
	Size    string          `json:"size"`
	Workers int             `json:"workers"`
	Sweeps  []farm.Manifest `json:"sweeps"`
	Cache   farm.CacheStats `json:"cache"`
}

func cmdRun(args []string) error {
	sf := newSweepFlags("run")
	scale, figs, err := sf.parse(args)
	if err != nil {
		return err
	}
	h, f, err := sf.newHarness(scale)
	if err != nil {
		return err
	}
	report := runReport{Size: *sf.size, Workers: f.Workers()}
	for _, n := range figs {
		tables, err := figTables(h, n)
		if err != nil {
			return err
		}
		if *sf.jsonOut {
			if m := loadSweepManifest(h, f, n); m != nil {
				report.Sweeps = append(report.Sweeps, *m)
			}
			continue
		}
		for _, t := range tables {
			if *sf.markdown {
				fmt.Println(t.Markdown())
			} else {
				fmt.Println(t.Render())
			}
		}
	}
	report.Cache = f.Cache().Stats()
	if *sf.jsonOut {
		return emitJSON(report)
	}
	fmt.Fprintf(os.Stderr, "farm cache: %+v\n", report.Cache)
	return nil
}

func cmdWarm(args []string) error {
	sf := newSweepFlags("warm")
	scale, figs, err := sf.parse(args)
	if err != nil {
		return err
	}
	h, f, err := sf.newHarness(scale)
	if err != nil {
		return err
	}
	report := runReport{Size: *sf.size, Workers: f.Workers()}
	for _, n := range figs {
		if _, err := figTables(h, n); err != nil {
			return err
		}
		if m := loadSweepManifest(h, f, n); m != nil {
			report.Sweeps = append(report.Sweeps, *m)
			if !*sf.jsonOut {
				done, failed, pending := m.Counts()
				fmt.Printf("%-14s %d done, %d failed, %d pending\n", m.Sweep, done, failed, pending)
			}
		}
	}
	report.Cache = f.Cache().Stats()
	if *sf.jsonOut {
		return emitJSON(report)
	}
	fmt.Printf("cache: %d hits (%d disk), %d misses, %d corrupt\n",
		report.Cache.Hits, report.Cache.DiskHits, report.Cache.Misses, report.Cache.Corrupt)
	return nil
}

// loadSweepManifest fetches the manifest a figure's sweep just wrote
// (nil for memory-only farms, where no manifest persists).
func loadSweepManifest(h *senss.Harness, f *farm.Farm, n int) *farm.Manifest {
	if f.Cache().Dir() == "" {
		return nil
	}
	var tag string
	var err error
	if n == figScale {
		tag = "scaleE2-" + sizeLabel(h)
	} else {
		tag, err = h.SweepTag(n)
		if err != nil {
			return nil
		}
	}
	m, err := farm.LoadManifest(f.Cache().Dir(), tag)
	if err != nil {
		return nil
	}
	return m
}

func sizeLabel(h *senss.Harness) string {
	if h.Size == senss.SizeBench {
		return "bench"
	}
	return "test"
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("senss-farm status", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", ".senss-cache", "result cache directory")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return writeStatus(os.Stdout, *cacheDir, *jsonOut)
}

// statusReport is the -json document emitted by status.
type statusReport struct {
	CacheDir string          `json:"cache_dir"`
	Version  string          `json:"version"`
	Entries  int             `json:"entries"`
	Invalid  int             `json:"invalid"`
	Sweeps   []farm.Manifest `json:"sweeps"`
}

// writeStatus reports the cache contents and sweep manifests of cacheDir
// to w, as text or as one JSON document.
func writeStatus(w io.Writer, cacheDir string, jsonOut bool) error {
	c, err := farm.NewCache(cacheDir)
	if err != nil {
		return err
	}
	hashes, invalid, err := c.DiskEntries()
	if err != nil {
		return err
	}
	manifests, err := farm.Manifests(cacheDir)
	if err != nil {
		return err
	}
	if jsonOut {
		out := statusReport{CacheDir: cacheDir, Version: farm.CacheVersion, Entries: len(hashes), Invalid: invalid}
		for _, m := range manifests {
			out.Sweeps = append(out.Sweeps, *m)
		}
		return emitJSONTo(w, out)
	}
	fmt.Fprintf(w, "cache %s (version %s): %d valid entries, %d invalid/stale\n",
		cacheDir, farm.CacheVersion, len(hashes), invalid)
	if len(manifests) == 0 {
		fmt.Fprintln(w, "no sweep manifests")
		return nil
	}
	for _, m := range manifests {
		done, failed, pending := m.Counts()
		state := "complete"
		if pending > 0 {
			state = "resumable"
		}
		if failed > 0 {
			state = "has failures"
		}
		fmt.Fprintf(w, "  %-16s %3d jobs: %3d done, %d failed, %d pending  (%s)\n",
			m.Sweep, len(m.Jobs), done, failed, pending, state)
	}
	return nil
}

func cmdGC(args []string) error {
	fs := flag.NewFlagSet("senss-farm gc", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", ".senss-cache", "result cache directory")
	all := fs.Bool("all", false, "remove every entry and manifest, not just stale/corrupt ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := farm.NewCache(*cacheDir)
	if err != nil {
		return err
	}
	removed, err := c.GC(*all)
	if err != nil {
		return err
	}
	fmt.Printf("gc %s: removed %d file(s)\n", *cacheDir, removed)
	return nil
}

func emitJSON(v any) error { return emitJSONTo(os.Stdout, v) }

func emitJSONTo(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
