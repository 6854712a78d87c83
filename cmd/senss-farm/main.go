// Command senss-farm inspects and maintains the internal/farm result
// cache that senss-tables -cache-dir fills: it reports the cache contents
// and how much of each figure's sweep the cache holds, and
// garbage-collects stale entries. It is also the one producer of the
// BENCH_*.json trajectory records (bench.go).
//
// Subcommands:
//
//	senss-farm status -cache-dir .senss-cache -json
//	senss-farm gc     -cache-dir .senss-cache [-all]
//	senss-farm bench
//	senss-farm bench-sim [-workloads all] [-iters 5] [-out BENCH_sim.json]
//	senss-farm bench-check
//	senss-farm bench-crypto [-quick] [-out BENCH_crypto.json]
//	senss-farm bench-serve [-out BENCH_serve.json]
//
// Figure sweeps run through senss-tables. The cache is their only
// record: status lists each figure's jobs at test and bench size under
// every crypto backend and counts those with a cache entry as done, and
// re-running an interrupted sweep simulates only the pending ones.
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
	fmt.Fprint(w, `senss-farm — farm result-cache maintenance and BENCH record producer

usage: senss-farm <status|gc|bench|bench-sim|bench-check|bench-crypto|bench-serve> [flags]

  status  report cache contents and, per figure, size and crypto
          backend, how many of the sweep's jobs are cached (done) or
          still to simulate
  gc      remove stale/corrupt cache entries (-all wipes everything)
  bench   measure cold serial vs parallel wall-clock for Figure 6's
          jobs on the farm and write the BENCH_farm.json trajectory point
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

flags: see senss-farm <subcommand> -h
`)
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
	CacheDir string         `json:"cache_dir"`
	Version  string         `json:"version"`
	Entries  int            `json:"entries"`
	Invalid  int            `json:"invalid"`
	Figures  []figureStatus `json:"figures"`
}

// figureStatus counts one figure's sweep at one problem size under one
// crypto backend: its distinct jobs, those with a valid cache entry, and
// the rest. Baseline jobs carry no backend, so every backend's sweep
// counts them.
type figureStatus struct {
	Figure  string `json:"figure"`
	Size    string `json:"size"`
	Backend string `json:"backend"`
	Jobs    int    `json:"jobs"`
	Done    int    `json:"done"`
	Pending int    `json:"pending"`
}

// writeStatus reports the cache contents of cacheDir and each figure's
// sweep progress to w, as text or as one JSON document.
func writeStatus(w io.Writer, cacheDir string, jsonOut bool) error {
	c, err := farm.NewCache(cacheDir)
	if err != nil {
		return err
	}
	hashes, invalid, err := c.DiskEntries()
	if err != nil {
		return err
	}
	out := statusReport{CacheDir: cacheDir, Version: farm.CacheVersion, Entries: len(hashes), Invalid: invalid}
	for _, size := range []struct {
		name  string
		scale senss.Size
	}{{"test", senss.SizeTest}, {"bench", senss.SizeBench}} {
		for _, backend := range crypto.Backends() {
			h := senss.NewHarness(size.scale)
			h.Crypto = backend
			for _, name := range senss.FigureNames() {
				f, err := h.Figure(name)
				if err != nil {
					return err
				}
				st := figureStatus{Figure: name, Size: size.name, Backend: backend, Jobs: len(f.Jobs())}
				for _, j := range f.Jobs() {
					if c.Has(j.Hash()) {
						st.Done++
					}
				}
				st.Pending = st.Jobs - st.Done
				out.Figures = append(out.Figures, st)
			}
		}
	}
	if jsonOut {
		return emitJSONTo(w, out)
	}
	fmt.Fprintf(w, "cache %s (version %s): %d valid entries, %d invalid/stale\n",
		cacheDir, farm.CacheVersion, len(hashes), invalid)
	for _, st := range out.Figures {
		state := "resumable"
		switch st.Done {
		case st.Jobs:
			state = "complete"
		case 0:
			state = "not started"
		}
		fmt.Fprintf(w, "  fig %-5s %-5s %-6s %3d jobs: %3d done, %3d pending  (%s)\n",
			st.Figure, st.Size, st.Backend, st.Jobs, st.Done, st.Pending, state)
	}
	return nil
}

func cmdGC(args []string) error {
	fs := flag.NewFlagSet("senss-farm gc", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", ".senss-cache", "result cache directory")
	all := fs.Bool("all", false, "remove every entry, not just stale/corrupt ones")
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

func emitJSONTo(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
