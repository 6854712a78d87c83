package workload

import (
	"fmt"
	"math"

	"senss/internal/cpu"
	"senss/internal/machine"
	"senss/internal/psync"
)

// LU is the SPLASH2 "lu" stand-in: in-place LU factorization (no
// pivoting) of a dense diagonally-dominant n×n matrix. For each step k the
// owner thread scales the pivot column, then all threads update their
// share of the trailing submatrix — the pivot row/column broadcast is the
// kernel's producer-consumer sharing.
type LU struct {
	n int

	a      array // n×n row-major
	barMem uint64
	bar    *psync.Barrier

	orig []float64
}

// NewLU builds the lu workload at the given scale.
func NewLU(size Size) *LU {
	n := 24
	if size == SizeBench {
		n = 48
	}
	return &LU{n: n}
}

// Name implements Workload.
func (w *LU) Name() string { return "lu" }

func (w *LU) idx(i, j int) uint64 { return w.a.at(i*w.n + j) }

// Setup implements Workload.
func (w *LU) Setup(m *machine.Machine, procs int) []cpu.Program {
	n := w.n
	w.a = alloc(m, n*n)
	w.barMem = m.Alloc(64)
	w.bar = psync.NewBarrier(w.barMem, procs)

	r := m.Rand()
	w.orig = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := r.Float64()*2 - 1
			if i == j {
				v += float64(n) // diagonal dominance: stable without pivoting
			}
			w.orig[i*n+j] = v
			m.InitFloat(w.idx(i, j), v)
		}
	}

	progs := make([]cpu.Program, procs)
	for tid := 0; tid < procs; tid++ {
		tid := tid
		progs[tid] = func(c *cpu.Port) { w.thread(c, tid, procs) }
	}
	return progs
}

func (w *LU) thread(c *cpu.Port, tid, procs int) {
	n := w.n
	var ctx psync.Context
	for k := 0; k < n-1; k++ {
		// The owner of step k scales the pivot column.
		if k%procs == tid {
			pivot := c.LoadFloat(w.idx(k, k))
			for i := k + 1; i < n; i++ {
				c.StoreFloat(w.idx(i, k), c.LoadFloat(w.idx(i, k))/pivot)
			}
		}
		w.bar.Wait(c, &ctx)

		// All threads update their interleaved rows of the trailing block.
		for i := k + 1; i < n; i++ {
			if i%procs != tid {
				continue
			}
			lik := c.LoadFloat(w.idx(i, k))
			for j := k + 1; j < n; j++ {
				var v [2]uint64
				c.LoadN([]uint64{w.idx(i, j), w.idx(k, j)}, v[:])
				c.StoreFloat(w.idx(i, j), f64(v[0])-lik*f64(v[1]))
			}
		}
		w.bar.Wait(c, &ctx)
	}
}

// Validate implements Workload: L·U must reconstruct the original matrix.
func (w *LU) Validate(m *machine.Machine) error {
	n := w.n
	lu := make([]float64, n*n)
	for i := 0; i < n*n; i++ {
		lu[i] = m.ReadFloat(w.a.at(i))
	}
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k <= i && k <= j; k++ {
				l := lu[i*n+k]
				if k == i {
					l = 1
				}
				if k <= j {
					sum += l * lu[k*n+j]
				}
			}
			if d := math.Abs(sum - w.orig[i*n+j]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-8*float64(n) {
		return fmt.Errorf("lu: reconstruction error %.3g", worst)
	}
	return nil
}
