// Command senss-farm inspects and maintains the internal/farm result
// cache that senss-tables -cache-dir fills: it reports sweep manifests
// and cache contents and garbage-collects stale entries. It is also the
// one producer of the BENCH_*.json trajectory records (bench.go).
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
// Figure sweeps run through senss-tables, whose -cache-dir writes the
// resumable sweep manifests that status reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

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

  status  report sweep manifests and cache contents
  gc      remove stale/corrupt cache entries (-all wipes everything)
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

func emitJSONTo(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
