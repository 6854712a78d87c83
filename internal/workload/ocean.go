package workload

import (
	"fmt"
	"math"

	"senss/internal/cpu"
	"senss/internal/machine"
	"senss/internal/psync"
)

// Ocean is the SPLASH2 "ocean" stand-in: Jacobi relaxation of Laplace's
// equation on a g×g grid with fixed boundaries, rows partitioned across
// threads.  Each sweep reads the neighbor rows, so partition-boundary rows
// ping-pong between caches — the halo-exchange sharing of the original.
type Ocean struct {
	g     int
	iters int

	cur, next array
	barMem    uint64
	bar       *psync.Barrier

	boundaryLo, boundaryHi float64
}

// NewOcean builds the ocean workload at the given scale.
func NewOcean(size Size) *Ocean {
	g, iters := 32, 8
	if size == SizeBench {
		g, iters = 64, 12
	}
	return &Ocean{g: g, iters: iters}
}

// Name implements Workload.
func (w *Ocean) Name() string { return "ocean" }

func (w *Ocean) at(a array, i, j int) uint64 { return a.at(i*w.g + j) }

// Setup implements Workload.
func (w *Ocean) Setup(m *machine.Machine, procs int) []cpu.Program {
	g := w.g
	w.cur = alloc(m, g*g)
	w.next = alloc(m, g*g)
	w.barMem = m.Alloc(64)
	w.bar = psync.NewBarrier(w.barMem, procs)
	w.boundaryLo, w.boundaryHi = 0.0, 100.0

	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			v := 0.0
			if i == 0 {
				v = w.boundaryHi // hot top edge
			}
			m.InitFloat(w.at(w.cur, i, j), v)
			m.InitFloat(w.at(w.next, i, j), v)
		}
	}

	progs := make([]cpu.Program, procs)
	for tid := 0; tid < procs; tid++ {
		tid := tid
		progs[tid] = func(c *cpu.Port) { w.thread(c, tid, procs) }
	}
	return progs
}

func (w *Ocean) thread(c *cpu.Port, tid, procs int) {
	g := w.g
	var ctx psync.Context
	cur, next := w.cur, w.next
	lo, hi := chunk(g-2, procs, tid) // interior rows 1..g-2
	lo, hi = lo+1, hi+1

	for it := 0; it < w.iters; it++ {
		for i := lo; i < hi; i++ {
			for j := 1; j < g-1; j++ {
				var nb [4]uint64
				c.LoadN([]uint64{
					w.at(cur, i-1, j), w.at(cur, i+1, j),
					w.at(cur, i, j-1), w.at(cur, i, j+1),
				}, nb[:])
				v := 0.25 * (f64(nb[0]) + f64(nb[1]) + f64(nb[2]) + f64(nb[3]))
				c.StoreFloat(w.at(next, i, j), v)
			}
		}
		w.bar.Wait(c, &ctx)
		cur, next = next, cur
	}
}

// Validate implements Workload: the simulated grid must match a host-side
// Jacobi run exactly (same arithmetic), and stay within boundary bounds.
func (w *Ocean) Validate(m *machine.Machine) error {
	g := w.g
	ref := make([]float64, g*g)
	tmp := make([]float64, g*g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			if i == 0 {
				ref[i*g+j] = w.boundaryHi
				tmp[i*g+j] = w.boundaryHi
			}
		}
	}
	for it := 0; it < w.iters; it++ {
		for i := 1; i < g-1; i++ {
			for j := 1; j < g-1; j++ {
				tmp[i*g+j] = 0.25 * (ref[(i-1)*g+j] + ref[(i+1)*g+j] + ref[i*g+j-1] + ref[i*g+j+1])
			}
		}
		ref, tmp = tmp, ref
	}
	// After an even or odd number of sweeps the result sits in w.cur or
	// w.next; pick by iteration parity.
	result := w.cur
	if w.iters%2 == 1 {
		result = w.next
	}
	var worst float64
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			got := m.ReadFloat(w.at(result, i, j))
			if got < w.boundaryLo-1e-9 || got > w.boundaryHi+1e-9 {
				return fmt.Errorf("ocean: cell (%d,%d)=%g outside boundary range", i, j, got)
			}
			if d := math.Abs(got - ref[i*g+j]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-9 {
		return fmt.Errorf("ocean: max deviation from reference %.3g", worst)
	}
	return nil
}
