// Command perfbench is the repository's benchmark: it runs one workload of
// the SENSS simulator or its serving layer for a fixed host-time budget,
// checks every simulated result against the repository's golden tables or
// a serial replay, and prints one JSON result line.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench -workload sim-splash -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run. See README.md for
// the workloads, the metrics and what each one should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Workload names.
const (
	wlSplash     = "sim-splash"
	wlMemprotect = "sim-memprotect"
	wlServe      = "serve-mix"
)

// sliceCycles is the simulated-cycle budget of one Step, in every
// workload: driver.Session.Step for the sim workloads, the "cycles" field
// of POST /v1/sessions/{id}/step for serve-mix.
const sliceCycles = 2_000

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// hardCap bounds one phase even when it has not yet collected enough
// samples for its percentiles, so a run always ends within its time limit.
const hardCap = 90 * time.Second

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // repository root holding testdata/
	traceOut string // directory for the span dump of a traced run ("" = none)
}

func main() {
	var o options
	var seconds int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sim-splash, sim-memprotect or serve-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the workload schedule")
	flag.IntVar(&seconds, "seconds", 30, "host seconds one measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root (holds testdata/golden_cycles.json)")
	flag.StringVar(&o.traceOut, "trace-out", "", "directory to write the span dump of a traced run into")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}

	res, rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if rep != nil && o.traceOut != "" {
		if err := writeTrace(o, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	printSummary(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run dispatches to the workload. A traced run also returns the span
// report to dump.
func run(o options) (result, *traceReport, error) {
	switch o.workload {
	case wlSplash, wlMemprotect:
		return runSim(o)
	case wlServe:
		return runServe(o)
	}
	return result{}, nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", o.workload, wlSplash, wlMemprotect, wlServe)
}

// tally counts attempted and failed operations: simulations for the sim
// workloads, HTTP requests for serve-mix.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// finish turns a tally and metric set into the result line, reporting the
// first failure on standard error.
func (t tally) finish(metrics map[string]metric) result {
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// timeSetup runs fn setupReps times and returns the median duration in
// seconds.
func timeSetup(fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// printSummary writes the metrics to standard error, one per line.
func printSummary(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// writeTrace dumps a traced run's metrics and spans as JSON.
func writeTrace(o options, rep *traceReport) error {
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	path := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	buf, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(rep.Spans), path)
	return nil
}
