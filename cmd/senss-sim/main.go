// Command senss-sim runs one workload on one simulated machine
// configuration and prints the measurements.
//
// Examples:
//
//	senss-sim -workload fft -procs 4 -mode senss
//	senss-sim -workload ocean -mode senss+mem -integrity -interval 10
//	senss-sim -workload fft -mode naive
//	senss-sim -printconfig
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"senss"
	"senss/internal/crypto"
	"senss/internal/driver"
	"senss/internal/machine"
	"senss/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, simulates, writes the report to stdout and errors to
// stderr, and returns the exit status: 0 on success, 1 when the run
// fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("senss-sim", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		name        = flags.String("workload", "fft", "workload: "+strings.Join(senss.WorkloadNames(), ", "))
		procs       = flags.Int("procs", 4, "number of processors (1-32)")
		l2          = flags.Int("l2", 64<<10, "L2 cache bytes per processor")
		l1          = flags.Int("l1", 4<<10, "L1 cache bytes (each of I and D)")
		mode        = flags.String("mode", "base", "security mode: base, senss, senss+mem, naive")
		integrity   = flags.Bool("integrity", false, "enable CHash memory integrity (with -mode senss+mem)")
		masks       = flags.Int("masks", 8, "SENSS mask banks (1, 2, 4, 8)")
		perfect     = flags.Bool("perfect", true, "perfect mask supply (no stalls)")
		authmode    = flags.String("authmode", "cbc", "bus construction: cbc (paper) or gf (GCM-style extension)")
		padupdate   = flags.Bool("padupdate", false, "write-update pad coherence (§6.1 variant) instead of invalidate")
		padperfect  = flags.Bool("padperfect", true, "perfect sequence-number cache (§7.7)")
		dispatch    = flags.Bool("dispatch", false, "establish groups via the full §4.1 RSA dispatch handshake")
		adaptive    = flags.Bool("adaptive", false, "load-adaptive authentication interval (§4.3 extension)")
		interval    = flags.Int("interval", 100, "authentication interval in cache-to-cache transfers (0 = off)")
		bench       = flags.Bool("bench", false, "use the larger bench-scale problem size")
		seed        = flags.Uint64("seed", 1, "simulation seed")
		backend     = flags.String("crypto", crypto.Ref, "crypto backend: "+strings.Join(crypto.Backends(), ", ")+" (ref is the fidelity oracle; cycle counts are identical across backends)")
		printConfig = flags.Bool("printconfig", false, "print the Figure 5 architectural parameters and exit")
		compare     = flags.Bool("compare", true, "also run the unprotected baseline and report slowdown")
		traceFile   = flags.String("trace", "", "record the bus transaction stream to this JSONL file")
		traceLimit  = flags.Int("tracelimit", 100000, "maximum transactions to trace")
	)
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	cfg := senss.DefaultConfig()
	cfg.Procs = *procs
	cfg.Coherence.L1Size = *l1
	cfg.Coherence.L2Size = *l2
	cfg.Seed = *seed
	cfg.Security.Senss.Masks = *masks
	cfg.Security.Senss.Perfect = *perfect
	cfg.Security.Senss.AuthInterval = *interval
	cfg.Security.Memsec.WriteUpdate = *padupdate
	cfg.Security.Memsec.PerfectSNC = *padperfect
	cfg.Security.FullDispatch = *dispatch
	cfg.Security.Senss.Adaptive = *adaptive
	if !crypto.Known(*backend) {
		fmt.Fprintf(stderr, "senss-sim: unknown crypto backend %q (have %s)\n", *backend, strings.Join(crypto.Backends(), ", "))
		return 2
	}
	cfg.Security.Senss.Backend = *backend
	switch *authmode {
	case "cbc":
		cfg.Security.Senss.AuthMode = senss.AuthCBC
	case "gf":
		cfg.Security.Senss.AuthMode = senss.AuthGF
	default:
		fmt.Fprintf(stderr, "senss-sim: unknown authmode %q\n", *authmode)
		return 2
	}
	m, err := machine.ParseSecurityMode(*mode)
	if err != nil {
		fmt.Fprintf(stderr, "senss-sim: unknown mode %q\n", *mode)
		return 2
	}
	cfg.Security.Mode = m
	cfg.Security.Integrity = m == senss.SecurityBusMem && *integrity
	var geom *machine.GeometryError
	if err := cfg.Validate(); errors.As(err, &geom) {
		fmt.Fprintf(stderr, "senss-sim: bad -l1/-l2 size: %v\n", geom)
		return 2
	}

	if *printConfig {
		printFigure5(stdout, cfg)
		return 0
	}

	size := senss.SizeTest
	if *bench {
		size = senss.SizeBench
	}

	withBase := m != senss.SecurityOff && *compare
	if *traceFile != "" {
		cfg.TraceLimit = *traceLimit
		err = runTraced(stdout, *name, size, cfg, *traceFile, withBase)
	} else if !withBase {
		var r senss.Run
		if r, err = senss.RunWorkload(*name, size, cfg); err == nil {
			printRun(stdout, r)
		}
	} else {
		err = runCompare(stdout, *name, size, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "senss-sim:", err)
		return 1
	}
	return 0
}

// runCompare runs cfg and its baseline and reports both plus the
// slowdown.
func runCompare(w io.Writer, name string, size senss.Size, cfg senss.Config) error {
	base, sec, err := senss.Compare(name, size, cfg)
	if err != nil {
		return err
	}
	printCompare(w, cfg.Security.Mode, base, sec)
	return nil
}

// printCompare reports a baseline run, the secured run and the slowdown.
func printCompare(w io.Writer, mode machine.SecurityMode, base, sec senss.Run) {
	fmt.Fprintln(w, "=== baseline ===")
	printRun(w, base)
	fmt.Fprintf(w, "\n=== %s ===\n", mode)
	printRun(w, sec)
	fmt.Fprintf(w, "\nslowdown:             %8.3f %%\n", senss.SlowdownPct(base, sec))
	fmt.Fprintf(w, "bus traffic increase: %8.3f %%\n", senss.TrafficIncreasePct(base, sec))
}

// runTraced runs one workload with bus tracing (cfg.TraceLimit set) and
// writes the JSONL file plus a summary. With withBase it also runs the
// untraced baseline and reports the run as runCompare does.
func runTraced(w io.Writer, name string, size senss.Size, cfg senss.Config, path string, withBase bool) error {
	s, err := driver.NewSession(name, size, cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	r, err := s.Run(context.Background(), math.MaxUint64)
	if err != nil {
		return err
	}
	var base senss.Run
	if withBase {
		bcfg := cfg.Baseline()
		bcfg.TraceLimit = 0
		if base, err = senss.RunWorkload(name, size, bcfg); err != nil {
			return err
		}
	}
	rec := s.Trace()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// An unchecked Close on a written file can silently lose buffered
	// output.
	if err := errors.Join(rec.WriteJSONL(f), f.Close()); err != nil {
		return err
	}
	if withBase {
		printCompare(w, cfg.Security.Mode, base, r)
	} else {
		printRun(w, r)
	}
	fmt.Fprintf(w, "\ntrace: %d events to %s (%d beyond limit dropped)\n",
		len(rec.Events), path, rec.Dropped)
	trace.Summarize(rec.Events).Format(w)
	return nil
}

func printRun(w io.Writer, r senss.Run) {
	fmt.Fprintf(w, "cycles:            %d\n", r.Cycles)
	fmt.Fprintf(w, "bus transactions:  %d (%d cache-to-cache, %d memory fills)\n", r.BusTotal, r.C2C, r.MemFills)
	kinds := make([]string, 0, len(r.BusByKind))
	for k := range r.BusByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-10s %d\n", k, r.BusByKind[k])
	}
	fmt.Fprintf(w, "bus busy cycles:   %d\n", r.BusBusy)
	if r.ArbWaits > 0 {
		fmt.Fprintf(w, "bus contention:    %d waits, %d cycles total, %d worst\n",
			r.ArbWaits, r.ArbWaitCyc, r.ArbWaitMax)
	}
	fmt.Fprintf(w, "memory ops:        %d loads, %d stores, %d RMWs\n", r.Loads, r.Stores, r.RMWs)
	fmt.Fprintf(w, "L1D hits/misses:   %d/%d\n", r.L1DHits, r.L1DMisses)
	fmt.Fprintf(w, "L2 hits/misses:    %d/%d\n", r.L2Hits, r.L2Misses)
	if r.AuthMsgs > 0 || r.MaskStalls > 0 {
		fmt.Fprintf(w, "SENSS:             %d auth msgs, %d mask-stall cycles\n", r.AuthMsgs, r.MaskStalls)
	}
	if r.AuthUps+r.AuthDowns > 0 {
		fmt.Fprintf(w, "adaptive auth:     %d interval raises, %d drops\n", r.AuthUps, r.AuthDowns)
	}
	if r.PadMsgs > 0 {
		fmt.Fprintf(w, "memsec:            %d pad msgs (%d hits, %d misses)\n", r.PadMsgs, r.PadHits, r.PadMisses)
	}
	if r.HashOps > 0 {
		fmt.Fprintf(w, "integrity:         %d hash ops\n", r.HashOps)
	}
	if r.Halted {
		fmt.Fprintf(w, "HALTED:            %s\n", r.HaltReason)
	}
}

func printFigure5(w io.Writer, cfg senss.Config) {
	fmt.Fprintln(w, "Architectural parameters (paper Figure 5)")
	fmt.Fprintln(w, "-----------------------------------------")
	fmt.Fprintf(w, "processors:             %d at 1 GHz, in-order\n", cfg.Procs)
	fmt.Fprintf(w, "L1 I/D caches:          %d KB each, %d-way, %d B lines, %d-cycle hit\n",
		cfg.Coherence.L1Size>>10, cfg.Coherence.L1Ways, cfg.Coherence.L1Line, cfg.Coherence.L1HitLat)
	fmt.Fprintf(w, "L2 cache:               %d KB, %d-way, %d B lines, %d-cycle hit, write-back\n",
		cfg.Coherence.L2Size>>10, cfg.Coherence.L2Ways, cfg.Coherence.L2Line, cfg.Coherence.L2HitLat)
	fmt.Fprintf(w, "coherence:              MOESI write-invalidate snooping\n")
	fmt.Fprintf(w, "shared bus:             %d B/bus-cycle at CPU/%d (3.2 GB/s-class)\n",
		cfg.Bus.BytesPerBusCycle, cfg.Bus.BusCycle)
	fmt.Fprintf(w, "cache-to-cache latency: %d cycles (uncontended)\n", cfg.Bus.C2CLat)
	fmt.Fprintf(w, "memory latency:         %d cycles\n", cfg.Bus.MemLat)
	fmt.Fprintf(w, "AES unit:               %d-cycle latency, bus-matched throughput\n", cfg.Security.Senss.AESLatency)
	fmt.Fprintf(w, "hash unit:              %d-cycle latency\n", cfg.Security.Tree.HashLatency)
	fmt.Fprintf(w, "SENSS bus overhead:     +%d cycles per tagged message\n", cfg.Security.Senss.BusOverhead)
	fmt.Fprintf(w, "mask banks:             %d (perfect=%v), auth interval %d\n",
		cfg.Security.Senss.Masks, cfg.Security.Senss.Perfect, cfg.Security.Senss.AuthInterval)
}
