// Command senss-tables regenerates the paper's evaluation artifacts
// (Figures 6-11) as text tables, plus the §7.1 hardware-cost numbers.
//
// Sweeps run on the internal/farm orchestration pool: independent
// simulations execute concurrently (bounded by -workers) and results are
// content-addressed, so identical configurations across figures simulate
// once. With -cache-dir the results persist and a re-run assembles
// tables without simulating at all. Output is byte-identical for any
// worker count and cache temperature.
//
// Examples:
//
//	senss-tables -fig 6
//	senss-tables -fig all -size bench -workers 8 -cache-dir .senss-cache
package main

import (
	"flag"
	"fmt"
	"os"

	"senss"
	"senss/internal/core"
	"senss/internal/crypto"
	"senss/internal/farm"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, 10, 11, hw, detect, scale, or all")
		size     = flag.String("size", "test", "problem scale: test (fast) or bench (larger)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown instead of aligned text")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = one per core)")
		cacheDir = flag.String("cache-dir", "", "persistent result cache directory (empty = in-memory only)")
		progress = flag.Bool("progress", false, "report live sweep progress on stderr")
		backend  = flag.String("crypto", crypto.Ref, "crypto backend for secured runs: ref or stdlib (tables are byte-identical; stdlib is faster wall-clock)")
	)
	flag.Parse()

	if !crypto.Known(*backend) {
		fmt.Fprintf(os.Stderr, "senss-tables: unknown crypto backend %q\n", *backend)
		os.Exit(2)
	}

	scale := senss.SizeTest
	if *size == "bench" {
		scale = senss.SizeBench
	} else if *size != "test" {
		fmt.Fprintf(os.Stderr, "senss-tables: unknown size %q\n", *size)
		os.Exit(2)
	}

	opts := farm.Options{Workers: *workers, CacheDir: *cacheDir}
	if *progress {
		opts.Progress = farm.NewReporter(os.Stderr)
	}
	f, err := farm.New(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "senss-tables: %v\n", err)
		os.Exit(1)
	}

	h := senss.NewHarnessOn(scale, f)
	h.Crypto = *backend
	figures := []int{6, 7, 8, 9, 10, 11}
	switch *fig {
	case "all":
	case "hw":
		printHW()
		return
	case "scale":
		tables, err := h.Scalability()
		if err != nil {
			fmt.Fprintf(os.Stderr, "senss-tables: %v\n", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(render(t, *markdown))
		}
		return
	case "detect":
		tables, err := h.DetectionLatency(6)
		if err != nil {
			fmt.Fprintf(os.Stderr, "senss-tables: %v\n", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(render(t, *markdown))
		}
		return
	default:
		var n int
		if _, err := fmt.Sscanf(*fig, "%d", &n); err != nil {
			fmt.Fprintf(os.Stderr, "senss-tables: bad figure %q\n", *fig)
			os.Exit(2)
		}
		figures = []int{n}
	}

	for _, n := range figures {
		tables, err := h.Figure(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "senss-tables: figure %d: %v\n", n, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(render(t, *markdown))
		}
	}
	if *fig == "all" {
		printHW()
	}
}

// render picks the output format.
func render(t *senss.Table, markdown bool) string {
	if markdown {
		return t.Markdown()
	}
	return t.Render()
}

func printHW() {
	fmt.Println("§7.1 — SHU hardware overhead")
	fmt.Println("----------------------------")
	fmt.Println(core.ComputeHWCost())
	fmt.Println()
}
