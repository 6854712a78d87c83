// Package senss is the public facade of the SENSS reproduction: a secure
// symmetric shared-memory multiprocessor (HPCA-11, 2005) built on an
// execution-driven SMP simulator.
//
// The typical flow is:
//
//	cfg := senss.DefaultConfig()
//	cfg.Security.Mode = senss.SecurityBus           // enable SENSS
//	run, err := senss.RunWorkload("fft", senss.SizeTest, cfg)
//
// or, comparing against the unprotected baseline:
//
//	base, sec, err := senss.Compare("radix", senss.SizeTest, cfg)
//	fmt.Printf("slowdown: %.2f%%\n", senss.SlowdownPct(base, sec))
//
// Lower-level access (custom programs, attack injection, the SHU protocol
// itself) goes through the internal packages; see DESIGN.md for the map.
package senss

import (
	"senss/internal/core"
	"senss/internal/driver"
	"senss/internal/machine"
	"senss/internal/stats"
	"senss/internal/workload"
)

// Re-exported configuration and result types.
type (
	// Config describes a simulated machine (see machine.Config).
	Config = machine.Config
	// SecurityConfig selects and parameterizes the protection layers.
	SecurityConfig = machine.SecurityConfig
	// Run is the measurement record of one simulation.
	Run = stats.Run
	// Table is a formatted result table.
	Table = stats.Table
	// Machine is an assembled simulated SMP.
	Machine = machine.Machine
	// Workload is a runnable, self-validating kernel.
	Workload = workload.Workload
	// Size selects a workload problem scale.
	Size = workload.Size
)

// Security modes.
const (
	// SecurityOff is the unprotected baseline.
	SecurityOff = machine.SecurityOff
	// SecurityBus enables SENSS bus encryption + authentication.
	SecurityBus = machine.SecurityBus
	// SecurityBusMem adds memory encryption (and optionally integrity).
	SecurityBusMem = machine.SecurityBusMem
	// SecurityNaive is the §7.3 direct-encryption strawman.
	SecurityNaive = machine.SecurityNaive
)

// Workload problem scales.
const (
	// SizeTest is sub-second; SizeBench matches the figure harness.
	SizeTest  = workload.SizeTest
	SizeBench = workload.SizeBench
)

// Bus encryption/authentication constructions.
const (
	// AuthCBC is the paper's primary design (chained masks + CBC-MAC).
	AuthCBC = core.AuthCBC
	// AuthGF is the §4.3 GCM-style extension (counter-mode masks + GHASH;
	// senders never stall on mask availability).
	AuthGF = core.AuthGF
)

// DefaultConfig returns the paper's Figure 5 machine: 4 × 1 GHz
// processors, 64 KB split L1s, 1 MB L2s, 3.2 GB/s 100 MHz bus, 80-cycle
// AES, 160-cycle hashing; security off.
func DefaultConfig() Config { return machine.DefaultConfig() }

// BenchConfig returns the benchmark machine: DefaultConfig with procs
// processors, scaled (DESIGN.md §2) to 4 KB L1s, 64 KB L2s and 2 KB of
// code so that test-scale workloads exercise the whole hierarchy. The
// BENCH_*.json records and the package's Go benchmarks measure it.
func BenchConfig(procs int) Config {
	cfg := machine.DefaultConfig()
	cfg.Procs = procs
	cfg.SmallGeometry()
	return cfg
}

// NewMachine assembles a machine for custom programs.
func NewMachine(cfg Config) *Machine { return machine.New(cfg) }

// NewWorkload constructs one of the built-in workloads: the paper's five
// SPLASH2 kernels (fft, radix, barnes, lu, ocean) or the microbenchmarks
// (falseshare, prodcons, lockcontend).
func NewWorkload(name string, size Size) (Workload, error) {
	return workload.New(name, size)
}

// WorkloadNames lists every built-in workload.
func WorkloadNames() []string { return workload.AllNames() }

// PaperSuite lists the five benchmarks of the paper's evaluation.
func PaperSuite() []string { return workload.PaperSuite() }

// RunWorkload builds a machine from cfg, runs the named workload on all
// processors, validates the computed result, and returns the
// measurements. The implementation is internal/driver.Run — shared with
// the internal/farm orchestration pool, which runs fleets of these
// concurrently with content-addressed result caching.
func RunWorkload(name string, size Size, cfg Config) (Run, error) {
	return driver.Run(name, size, cfg)
}

// Compare runs the workload on the unprotected baseline and on cfg,
// returning both measurements. cfg.Security.Mode selects the protected
// variant; the baseline is cfg.Baseline(). The implementation
// is internal/driver.Compare, shared with the serving and farm layers.
func Compare(name string, size Size, cfg Config) (base, secure Run, err error) {
	return driver.Compare(name, size, cfg)
}

// SlowdownPct is the paper's "% slowdown" metric.
func SlowdownPct(base, secure Run) float64 { return stats.SlowdownPct(base, secure) }

// TrafficIncreasePct is the paper's "bus activity increase" metric.
func TrafficIncreasePct(base, secure Run) float64 {
	return stats.TrafficIncreasePct(base, secure)
}
