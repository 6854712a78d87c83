// Command senss-tables regenerates the paper's evaluation artifacts
// (Figures 6-11) as text tables, plus the §7.1 hardware-cost numbers.
//
// Sweeps run on the internal/farm orchestration pool: independent
// simulations execute concurrently (bounded by -workers) and results are
// content-addressed, so identical configurations across figures simulate
// once. With -cache-dir the results persist: a re-run assembles the
// tables without simulating at all, and a sweep that was interrupted
// resumes, simulating only the jobs the cache lacks. Output is
// byte-identical for any worker count and cache temperature.
//
// Examples:
//
//	senss-tables -fig 6
//	senss-tables -fig all -size bench -workers 8 -cache-dir .senss-cache
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := write(os.Stdout, h, *fig, *markdown); err != nil {
		fmt.Fprintf(os.Stderr, "senss-tables: %v\n", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is an unknown -fig value; it exits with status 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// write prints the tables that -fig selects to w.
func write(w io.Writer, h *senss.Harness, fig string, markdown bool) error {
	names := []string{fig}
	switch fig {
	case "all":
		names = []string{"6", "7", "8", "9", "10", "11"}
	case "hw":
		printHW(w)
		return nil
	case "detect":
		tables, err := h.DetectionLatency(6)
		if err != nil {
			return err
		}
		printTables(w, tables, markdown)
		return nil
	}
	for _, name := range names {
		f, err := h.Figure(name)
		if err != nil {
			return usageError(err.Error())
		}
		tables, err := f.Tables()
		if err != nil {
			return fmt.Errorf("figure %s: %v", name, err)
		}
		printTables(w, tables, markdown)
	}
	if fig == "all" {
		printHW(w)
	}
	return nil
}

// printTables prints each table followed by a blank line.
func printTables(w io.Writer, tables []*senss.Table, markdown bool) {
	for _, t := range tables {
		if markdown {
			fmt.Fprintln(w, t.Markdown())
		} else {
			fmt.Fprintln(w, t.Render())
		}
	}
}

func printHW(w io.Writer) {
	fmt.Fprintln(w, "§7.1 — SHU hardware overhead")
	fmt.Fprintln(w, "----------------------------")
	fmt.Fprintln(w, core.ComputeHWCost())
	fmt.Fprintln(w)
}
