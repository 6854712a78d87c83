// Package workload reimplements the SPLASH2 kernels the paper evaluates —
// fft, radix, barnes, lu, ocean — as parallel programs that execute
// entirely through the simulated coherent shared memory, synchronized with
// locks and barriers built on simulated atomics.  Problem sizes are scaled
// to simulator speed (DESIGN.md §2); the sharing patterns (transpose,
// scatter permutation, blocked factorization, stencil halos, tree walks)
// are preserved, since they drive the cache-to-cache traffic SENSS taxes.
package workload

import (
	"fmt"
	"math"

	"senss/internal/cpu"
	"senss/internal/machine"
)

// Workload is a runnable, self-validating kernel.
type Workload interface {
	// Name is the registry key ("fft", "radix", ...).
	Name() string
	// Setup allocates and initializes simulated memory on m and returns
	// one program per processor. It must be called exactly once, before
	// m.Run.
	Setup(m *machine.Machine, procs int) []cpu.Program
	// Validate checks the computation's result after the run.
	Validate(m *machine.Machine) error
}

// Size selects a problem scale.
type Size int

// Problem scales.
const (
	// SizeTest is small enough for unit tests (sub-second full runs).
	SizeTest Size = iota
	// SizeBench is the scale used by the figure-regeneration benches.
	SizeBench
)

// New constructs a workload by name. The paper's five benchmarks plus the
// microbenchmarks are available.
func New(name string, size Size) (Workload, error) {
	switch name {
	case "fft":
		return NewFFT(size), nil
	case "radix":
		return NewRadix(size), nil
	case "barnes":
		return NewBarnes(size), nil
	case "lu":
		return NewLU(size), nil
	case "ocean":
		return NewOcean(size), nil
	case "water":
		return NewWater(size), nil
	case "cholesky":
		return NewCholesky(size), nil
	case "falseshare":
		return NewFalseSharing(size), nil
	case "prodcons":
		return NewProducerConsumer(size), nil
	case "lockcontend":
		return NewLockContention(size), nil
	}
	return nil, fmt.Errorf("workload: unknown %q", name)
}

// PaperSuite lists the five SPLASH2 programs of the paper's evaluation, in
// the order of its figures.
func PaperSuite() []string {
	return []string{"fft", "radix", "barnes", "lu", "ocean"}
}

// AllNames lists every available workload: the paper suite, the extra
// SPLASH2-style kernels (water, cholesky), and the microbenchmarks.
func AllNames() []string {
	return append(PaperSuite(), "water", "cholesky", "falseshare", "prodcons", "lockcontend")
}

// array is a word-indexed view of a simulated allocation.
type array struct{ base uint64 }

func (a array) at(i int) uint64 { return a.base + uint64(i)*8 }

// f64 is the float64 whose IEEE-754 bits cpu.Port.LoadN read.
func f64(bits uint64) float64 { return math.Float64frombits(bits) }

// alloc reserves n 8-byte words.
func alloc(m *machine.Machine, n int) array {
	return array{base: m.Alloc(uint64(n) * 8)}
}

// chunk splits [0, n) into procs contiguous ranges and returns the tid-th.
func chunk(n, procs, tid int) (lo, hi int) {
	per := (n + procs - 1) / procs
	lo = tid * per
	hi = lo + per
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}
