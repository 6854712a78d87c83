package workload

import (
	"fmt"
	"math"

	"senss/internal/cpu"
	"senss/internal/machine"
	"senss/internal/psync"
)

// FFT is the SPLASH2 "fft" stand-in: an n-point iterative radix-2
// Cooley-Tukey transform over complex data held in shared memory, with all
// threads cooperating on every stage (barrier-separated).  The butterfly
// partners at large strides live in other processors' partitions, which
// creates exactly the transpose-style cache-to-cache traffic the original
// six-step FFT is known for.
type FFT struct {
	n int

	re, im array
	twRe   array
	twIm   array
	barMem uint64
	bar    *psync.Barrier

	input []complex128 // retained for validation
}

// NewFFT builds the fft workload at the given scale.
func NewFFT(size Size) *FFT {
	n := 256
	if size == SizeBench {
		n = 1024
	}
	return &FFT{n: n}
}

// Name implements Workload.
func (f *FFT) Name() string { return "fft" }

// Setup implements Workload.
func (f *FFT) Setup(m *machine.Machine, procs int) []cpu.Program {
	n := f.n
	f.re = alloc(m, n)
	f.im = alloc(m, n)
	f.twRe = alloc(m, n/2)
	f.twIm = alloc(m, n/2)
	f.barMem = m.Alloc(64)
	f.bar = psync.NewBarrier(f.barMem, procs)

	// Deterministic pseudo-random input signal.
	r := m.Rand()
	f.input = make([]complex128, n)
	for i := 0; i < n; i++ {
		v := complex(r.Float64()*2-1, r.Float64()*2-1)
		f.input[i] = v
		m.InitFloat(f.re.at(i), real(v))
		m.InitFloat(f.im.at(i), imag(v))
	}
	// Shared twiddle table (read-only sharing across all processors).
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		m.InitFloat(f.twRe.at(k), math.Cos(ang))
		m.InitFloat(f.twIm.at(k), math.Sin(ang))
	}

	progs := make([]cpu.Program, procs)
	for tid := 0; tid < procs; tid++ {
		tid := tid
		progs[tid] = func(c *cpu.Port) { f.thread(c, tid, procs) }
	}
	return progs
}

func (f *FFT) thread(c *cpu.Port, tid, procs int) {
	n := f.n
	var ctx psync.Context

	// Phase 1: bit-reversal permutation. Each thread swaps its share of
	// index pairs (i < j only, so each pair is swapped exactly once).
	lo, hi := chunk(n, procs, tid)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := lo; i < hi; i++ {
		j := reverseBits(i, bits)
		if i < j {
			var v [4]uint64
			c.LoadN([]uint64{f.re.at(i), f.im.at(i), f.re.at(j), f.im.at(j)}, v[:])
			ri, ii, rj, ij := f64(v[0]), f64(v[1]), f64(v[2]), f64(v[3])
			c.StoreFloat(f.re.at(i), rj)
			c.StoreFloat(f.im.at(i), ij)
			c.StoreFloat(f.re.at(j), ri)
			c.StoreFloat(f.im.at(j), ii)
		}
	}
	f.bar.Wait(c, &ctx)

	// Phase 2: log2(n) butterfly stages, barrier-separated. Butterflies
	// are dealt to threads by index, so partners cross partitions at the
	// larger strides.
	for span := 1; span < n; span <<= 1 {
		stride := n / (2 * span) // twiddle stride
		total := n / 2
		blo, bhi := chunk(total, procs, tid)
		for b := blo; b < bhi; b++ {
			block := b / span
			off := b % span
			i := block*2*span + off
			j := i + span
			var v [6]uint64
			c.LoadN([]uint64{
				f.twRe.at(off * stride), f.twIm.at(off * stride),
				f.re.at(j), f.im.at(j), f.re.at(i), f.im.at(i),
			}, v[:])
			wr, wi, rj, ij := f64(v[0]), f64(v[1]), f64(v[2]), f64(v[3])
			tr := wr*rj - wi*ij
			ti := wr*ij + wi*rj
			ri, ii := f64(v[4]), f64(v[5])
			c.StoreFloat(f.re.at(i), ri+tr)
			c.StoreFloat(f.im.at(i), ii+ti)
			c.StoreFloat(f.re.at(j), ri-tr)
			c.StoreFloat(f.im.at(j), ii-ti)
		}
		f.bar.Wait(c, &ctx)
	}
}

func reverseBits(v, bits int) int {
	out := 0
	for b := 0; b < bits; b++ {
		out = out<<1 | (v>>b)&1
	}
	return out
}

// Validate implements Workload: the simulated spectrum must match a
// reference DFT of the retained input.
func (f *FFT) Validate(m *machine.Machine) error {
	n := f.n
	// Reference via a host-side FFT of the same input.
	want := hostFFT(f.input)
	var worst float64
	var scale float64
	for i := 0; i < n; i++ {
		gr := m.ReadFloat(f.re.at(i))
		gi := m.ReadFloat(f.im.at(i))
		d := cmplxAbs(complex(gr, gi) - want[i])
		if d > worst {
			worst = d
		}
		if a := cmplxAbs(want[i]); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	if worst/scale > 1e-9 {
		return fmt.Errorf("fft: max error %.3g (relative %.3g)", worst, worst/scale)
	}
	return nil
}

func cmplxAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// hostFFT computes the same radix-2 DIT transform natively.
func hostFFT(in []complex128) []complex128 {
	n := len(in)
	out := make([]complex128, n)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i, v := range in {
		out[reverseBits(i, bits)] = v
	}
	for span := 1; span < n; span <<= 1 {
		for block := 0; block < n/(2*span); block++ {
			for off := 0; off < span; off++ {
				ang := -2 * math.Pi * float64(off*(n/(2*span))) / float64(n)
				w := complex(math.Cos(ang), math.Sin(ang))
				i := block*2*span + off
				j := i + span
				t := w * out[j]
				out[i], out[j] = out[i]+t, out[i]-t
			}
		}
	}
	return out
}
