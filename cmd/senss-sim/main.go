// Command senss-sim runs one workload on one simulated machine
// configuration and prints the measurements.
//
// Examples:
//
//	senss-sim -workload fft -procs 4 -mode senss
//	senss-sim -workload ocean -mode senss+mem -integrity -interval 10
//	senss-sim -printconfig
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"senss"
	"senss/internal/crypto"
	"senss/internal/machine"
	"senss/internal/trace"
)

func main() {
	var (
		name        = flag.String("workload", "fft", "workload: "+strings.Join(senss.WorkloadNames(), ", "))
		procs       = flag.Int("procs", 4, "number of processors (1-32)")
		l2          = flag.Int("l2", 64<<10, "L2 cache bytes per processor")
		l1          = flag.Int("l1", 4<<10, "L1 cache bytes (each of I and D)")
		mode        = flag.String("mode", "base", "security mode: base, senss, senss+mem, naive")
		integrity   = flag.Bool("integrity", false, "enable CHash memory integrity (with -mode senss+mem)")
		masks       = flag.Int("masks", 8, "SENSS mask banks (1, 2, 4, 8)")
		perfect     = flag.Bool("perfect", true, "perfect mask supply (no stalls)")
		authmode    = flag.String("authmode", "cbc", "bus construction: cbc (paper) or gf (GCM-style extension)")
		padupdate   = flag.Bool("padupdate", false, "write-update pad coherence (§6.1 variant) instead of invalidate")
		padperfect  = flag.Bool("padperfect", true, "perfect sequence-number cache (§7.7)")
		dispatch    = flag.Bool("dispatch", false, "establish groups via the full §4.1 RSA dispatch handshake")
		adaptive    = flag.Bool("adaptive", false, "load-adaptive authentication interval (§4.3 extension)")
		interval    = flag.Int("interval", 100, "authentication interval in cache-to-cache transfers (0 = off)")
		bench       = flag.Bool("bench", false, "use the larger bench-scale problem size")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		backend     = flag.String("crypto", crypto.Ref, "crypto backend: "+strings.Join(crypto.Backends(), ", ")+" (ref is the fidelity oracle; cycle counts are identical across backends)")
		printConfig = flag.Bool("printconfig", false, "print the Figure 5 architectural parameters and exit")
		compare     = flag.Bool("compare", true, "also run the unprotected baseline and report slowdown")
		traceFile   = flag.String("trace", "", "record the bus transaction stream to this JSONL file")
		traceLimit  = flag.Int("tracelimit", 100000, "maximum transactions to trace")
	)
	flag.Parse()

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
		fmt.Fprintf(os.Stderr, "senss-sim: unknown crypto backend %q (have %s)\n", *backend, strings.Join(crypto.Backends(), ", "))
		os.Exit(2)
	}
	cfg.Security.Senss.Backend = *backend
	switch *authmode {
	case "cbc":
		cfg.Security.Senss.AuthMode = senss.AuthCBC
	case "gf":
		cfg.Security.Senss.AuthMode = senss.AuthGF
	default:
		fmt.Fprintf(os.Stderr, "senss-sim: unknown authmode %q\n", *authmode)
		os.Exit(2)
	}
	if *mode == "naive" {
		// The §7.3 naive baseline is SENSS's bus mode with direct
		// encryption in place of the mask pipeline.
		cfg.Security.Mode = senss.SecurityBus
		cfg.Security.Naive = true
	} else {
		m, err := machine.ParseSecurityMode(*mode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "senss-sim: unknown mode %q\n", *mode)
			os.Exit(2)
		}
		cfg.Security.Mode = m
		cfg.Security.Integrity = m == senss.SecurityBusMem && *integrity
	}

	if *printConfig {
		printFigure5(cfg)
		return
	}

	size := senss.SizeTest
	if *bench {
		size = senss.SizeBench
	}

	if *traceFile != "" {
		runTraced(*name, size, cfg, *traceFile, *traceLimit)
		return
	}

	if *mode == "base" || !*compare {
		run, err := senss.RunWorkload(*name, size, cfg)
		if err != nil {
			fail(err)
		}
		printRun(run)
		return
	}

	base, sec, err := senss.Compare(*name, size, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Println("=== baseline ===")
	printRun(base)
	fmt.Printf("\n=== %s ===\n", *mode)
	printRun(sec)
	fmt.Printf("\nslowdown:             %8.3f %%\n", senss.SlowdownPct(base, sec))
	fmt.Printf("bus traffic increase: %8.3f %%\n", senss.TrafficIncreasePct(base, sec))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "senss-sim:", err)
	os.Exit(1)
}

// runTraced runs one workload with bus tracing and writes the JSONL file
// plus a summary.
func runTraced(name string, size senss.Size, cfg senss.Config, path string, limit int) {
	cfg.TraceLimit = limit
	w, err := senss.NewWorkload(name, size)
	if err != nil {
		fail(err)
	}
	m := senss.NewMachine(cfg)
	progs := w.Setup(m, cfg.Procs)
	run, err := m.Run(progs)
	if err != nil {
		fail(err)
	}
	if err := w.Validate(m); err != nil {
		fail(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := m.Trace.WriteJSONL(f); err != nil {
		fail(err)
	}
	// An unchecked Close on a written file can silently lose buffered
	// output.
	if err := f.Close(); err != nil {
		fail(err)
	}
	printRun(run)
	fmt.Printf("\ntrace: %d events to %s (%d beyond limit dropped)\n",
		len(m.Trace.Events), path, m.Trace.Dropped)
	trace.Summarize(m.Trace.Events).Format(os.Stdout)
}

func printRun(r senss.Run) {
	fmt.Printf("cycles:            %d\n", r.Cycles)
	fmt.Printf("bus transactions:  %d (%d cache-to-cache, %d memory fills)\n", r.BusTotal, r.C2C, r.MemFills)
	kinds := make([]string, 0, len(r.BusByKind))
	for k := range r.BusByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-10s %d\n", k, r.BusByKind[k])
	}
	fmt.Printf("bus busy cycles:   %d\n", r.BusBusy)
	if r.ArbWaits > 0 {
		fmt.Printf("bus contention:    %d waits, %d cycles total, %d worst\n",
			r.ArbWaits, r.ArbWaitCyc, r.ArbWaitMax)
	}
	fmt.Printf("memory ops:        %d loads, %d stores, %d RMWs\n", r.Loads, r.Stores, r.RMWs)
	fmt.Printf("L1D hits/misses:   %d/%d\n", r.L1DHits, r.L1DMisses)
	fmt.Printf("L2 hits/misses:    %d/%d\n", r.L2Hits, r.L2Misses)
	if r.AuthMsgs > 0 || r.MaskStalls > 0 {
		fmt.Printf("SENSS:             %d auth msgs, %d mask-stall cycles\n", r.AuthMsgs, r.MaskStalls)
	}
	if r.AuthUps+r.AuthDowns > 0 {
		fmt.Printf("adaptive auth:     %d interval raises, %d drops\n", r.AuthUps, r.AuthDowns)
	}
	if r.PadMsgs > 0 {
		fmt.Printf("memsec:            %d pad msgs (%d hits, %d misses)\n", r.PadMsgs, r.PadHits, r.PadMisses)
	}
	if r.HashOps > 0 {
		fmt.Printf("integrity:         %d hash ops\n", r.HashOps)
	}
	if r.Halted {
		fmt.Printf("HALTED:            %s\n", r.HaltReason)
	}
}

func printFigure5(cfg senss.Config) {
	fmt.Println("Architectural parameters (paper Figure 5)")
	fmt.Println("-----------------------------------------")
	fmt.Printf("processors:             %d at 1 GHz, in-order\n", cfg.Procs)
	fmt.Printf("L1 I/D caches:          %d KB each, %d-way, %d B lines, %d-cycle hit\n",
		cfg.Coherence.L1Size>>10, cfg.Coherence.L1Ways, cfg.Coherence.L1Line, cfg.Coherence.L1HitLat)
	fmt.Printf("L2 cache:               %d KB, %d-way, %d B lines, %d-cycle hit, write-back\n",
		cfg.Coherence.L2Size>>10, cfg.Coherence.L2Ways, cfg.Coherence.L2Line, cfg.Coherence.L2HitLat)
	fmt.Printf("coherence:              MOESI write-invalidate snooping\n")
	fmt.Printf("shared bus:             %d B/bus-cycle at CPU/%d (3.2 GB/s-class)\n",
		cfg.Bus.BytesPerBusCycle, cfg.Bus.BusCycle)
	fmt.Printf("cache-to-cache latency: %d cycles (uncontended)\n", cfg.Bus.C2CLat)
	fmt.Printf("memory latency:         %d cycles\n", cfg.Bus.MemLat)
	fmt.Printf("AES unit:               %d-cycle latency, bus-matched throughput\n", cfg.Security.Senss.AESLatency)
	fmt.Printf("hash unit:              %d-cycle latency\n", cfg.Security.Tree.HashLatency)
	fmt.Printf("SENSS bus overhead:     +%d cycles per tagged message\n", cfg.Security.Senss.BusOverhead)
	fmt.Printf("mask banks:             %d (perfect=%v), auth interval %d\n",
		cfg.Security.Senss.Masks, cfg.Security.Senss.Perfect, cfg.Security.Senss.AuthInterval)
}
