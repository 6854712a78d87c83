package coherence

import (
	"fmt"
	"testing"

	"senss/internal/sim"
)

// Memory-consistency litmus tests. The simulated SMP implements sequential
// consistency (atomic bus, in-order processors, state committed at the
// coherence point), so the classic forbidden outcomes must never appear.
// Each test sweeps relative thread timings to explore many interleavings.

const (
	litX = uint64(0x4000)
	litY = uint64(0x4040) // separate lines
)

// sweepOffsets runs body under a grid of per-thread start offsets.
func sweepOffsets(t *testing.T, body func(t *testing.T, d0, d1 uint64)) {
	t.Helper()
	offsets := []uint64{0, 1, 2, 5, 13, 40, 111, 130, 200}
	for _, d0 := range offsets {
		for _, d1 := range offsets {
			body(t, d0, d1)
		}
	}
}

// TestLitmusMessagePassing: MP. T0: x=1; y=1. T1: r1=y; r2=x.
// SC forbids r1=1 ∧ r2=0.
func TestLitmusMessagePassing(t *testing.T) {
	sweepOffsets(t, func(t *testing.T, d0, d1 uint64) {
		s := newSystem(t, 2, 4<<10)
		var r1, r2 uint64
		s.engine.Spawn("w", func(p *sim.Proc) {
			p.Sleep(d0)
			s.nodes[0].Store(p, litX, 1)
			s.nodes[0].Store(p, litY, 1)
		})
		s.engine.Spawn("r", func(p *sim.Proc) {
			p.Sleep(d1)
			r1 = s.nodes[1].Load(p, litY)
			r2 = s.nodes[1].Load(p, litX)
		})
		s.run(t)
		if r1 == 1 && r2 == 0 {
			t.Fatalf("MP violation at offsets (%d,%d): saw y=1 but x=0", d0, d1)
		}
	})
}

// TestLitmusStoreBuffering: SB. T0: x=1; r1=y. T1: y=1; r2=x.
// SC forbids r1=0 ∧ r2=0.
func TestLitmusStoreBuffering(t *testing.T) {
	sweepOffsets(t, func(t *testing.T, d0, d1 uint64) {
		s := newSystem(t, 2, 4<<10)
		var r1, r2 uint64
		s.engine.Spawn("t0", func(p *sim.Proc) {
			p.Sleep(d0)
			s.nodes[0].Store(p, litX, 1)
			r1 = s.nodes[0].Load(p, litY)
		})
		s.engine.Spawn("t1", func(p *sim.Proc) {
			p.Sleep(d1)
			s.nodes[1].Store(p, litY, 1)
			r2 = s.nodes[1].Load(p, litX)
		})
		s.run(t)
		if r1 == 0 && r2 == 0 {
			t.Fatalf("SB violation at offsets (%d,%d): both loads saw 0", d0, d1)
		}
	})
}

// TestLitmusLoadBuffering: LB. T0: r1=x; y=1. T1: r2=y; x=1.
// SC forbids r1=1 ∧ r2=1.
func TestLitmusLoadBuffering(t *testing.T) {
	sweepOffsets(t, func(t *testing.T, d0, d1 uint64) {
		s := newSystem(t, 2, 4<<10)
		var r1, r2 uint64
		s.engine.Spawn("t0", func(p *sim.Proc) {
			p.Sleep(d0)
			r1 = s.nodes[0].Load(p, litX)
			s.nodes[0].Store(p, litY, 1)
		})
		s.engine.Spawn("t1", func(p *sim.Proc) {
			p.Sleep(d1)
			r2 = s.nodes[1].Load(p, litY)
			s.nodes[1].Store(p, litX, 1)
		})
		s.run(t)
		if r1 == 1 && r2 == 1 {
			t.Fatalf("LB violation at offsets (%d,%d): both loads saw the future", d0, d1)
		}
	})
}

// TestLitmusCoherenceRR: CoRR. T0: x=1; x=2. T1: r1=x; r2=x.
// Coherence forbids r1=2 ∧ r2=1 (no going back in time on one location).
func TestLitmusCoherenceRR(t *testing.T) {
	sweepOffsets(t, func(t *testing.T, d0, d1 uint64) {
		s := newSystem(t, 2, 4<<10)
		var r1, r2 uint64
		s.engine.Spawn("w", func(p *sim.Proc) {
			p.Sleep(d0)
			s.nodes[0].Store(p, litX, 1)
			s.nodes[0].Store(p, litX, 2)
		})
		s.engine.Spawn("r", func(p *sim.Proc) {
			p.Sleep(d1)
			r1 = s.nodes[1].Load(p, litX)
			r2 = s.nodes[1].Load(p, litX)
		})
		s.run(t)
		if r1 == 2 && r2 == 1 {
			t.Fatalf("CoRR violation at offsets (%d,%d): value went backwards", d0, d1)
		}
	})
}

// TestLitmusIRIW: independent reads of independent writes. T0: x=1.
// T1: y=1. T2: r1=x; r2=y. T3: r3=y; r4=x.
// SC forbids r1=1,r2=0,r3=1,r4=0 (the two readers disagreeing on order).
func TestLitmusIRIW(t *testing.T) {
	offsets := []uint64{0, 7, 60, 130}
	for _, d2 := range offsets {
		for _, d3 := range offsets {
			s := newSystem(t, 4, 4<<10)
			var r1, r2, r3, r4 uint64
			s.engine.Spawn("w0", func(p *sim.Proc) { s.nodes[0].Store(p, litX, 1) })
			s.engine.Spawn("w1", func(p *sim.Proc) { s.nodes[1].Store(p, litY, 1) })
			s.engine.Spawn("r0", func(p *sim.Proc) {
				p.Sleep(d2)
				r1 = s.nodes[2].Load(p, litX)
				r2 = s.nodes[2].Load(p, litY)
			})
			s.engine.Spawn("r1", func(p *sim.Proc) {
				p.Sleep(d3)
				r3 = s.nodes[3].Load(p, litY)
				r4 = s.nodes[3].Load(p, litX)
			})
			s.run(t)
			if r1 == 1 && r2 == 0 && r3 == 1 && r4 == 0 {
				t.Fatalf("IRIW violation at offsets (%d,%d): readers disagree on write order", d2, d3)
			}
		}
	}
}

// TestLitmusAtomicity: parallel RMWs on one word never lose increments,
// across timing offsets (complements the machine-level counter test).
func TestLitmusAtomicity(t *testing.T) {
	for _, d := range []uint64{0, 3, 59, 121} {
		s := newSystem(t, 2, 4<<10)
		for i := 0; i < 2; i++ {
			i := i
			s.engine.Spawn(fmt.Sprintf("inc%d", i), func(p *sim.Proc) {
				p.Sleep(uint64(i) * d)
				for k := 0; k < 50; k++ {
					s.nodes[i].Add(p, litX, 1)
				}
			})
		}
		s.run(t)
		v, ok := s.nodes[0].PeekWord(litX)
		if !ok {
			v, _ = s.nodes[1].PeekWord(litX)
		}
		if v != 100 {
			t.Fatalf("offset %d: counter = %d, want 100", d, v)
		}
	}
}
