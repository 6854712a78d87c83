package psync

import (
	"testing"

	"senss/internal/bus"
	"senss/internal/coherence"
	"senss/internal/cpu"
	"senss/internal/mem"
	"senss/internal/sim"
)

// rig builds an n-processor system and runs one program per processor.
func rig(t *testing.T, procs int, progs func(tid int) cpu.Program) uint64 {
	t.Helper()
	e := sim.NewEngine()
	e.SetLimit(500_000_000)
	store := mem.New()
	b := bus.New(e, bus.Timing{
		BusCycle: 10, C2CLat: 120, MemLat: 180, BytesPerBusCycle: 32, LineBytes: 64,
	}, &bus.SimpleMemory{Backing: store})
	params := coherence.Params{
		L1Size: 1 << 10, L1Ways: 2, L1Line: 32,
		L2Size: 16 << 10, L2Ways: 4, L2Line: 64,
		L1HitLat: 2, L2HitLat: 10, StoreLat: 2, RMWLat: 4,
	}
	nodes := make([]*coherence.Node, procs)
	for i := range nodes {
		nodes[i] = coherence.NewNode(i, params, b)
	}
	for i := 0; i < procs; i++ {
		cpu.Spawn(e, "cpu", nodes[i], cpu.Params{}, progs(i), nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Read back through any cache or memory.
	return e.Now()
}

func TestLockMutualExclusion(t *testing.T) {
	const procs, iters = 4, 50
	lock := NewLock(0x1000)
	inside := 0
	maxInside := 0
	rig(t, procs, func(tid int) cpu.Program {
		return func(c *cpu.Port) {
			for k := 0; k < iters; k++ {
				lock.Acquire(c)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				c.Think(13)
				inside--
				lock.Release(c)
			}
		}
	})
	if maxInside != 1 {
		t.Errorf("%d threads inside the critical section", maxInside)
	}
}

func TestWithLock(t *testing.T) {
	lock := NewLock(0x1000)
	ran := 0
	rig(t, 2, func(tid int) cpu.Program {
		return func(c *cpu.Port) {
			lock.WithLock(c, func() { ran++ })
		}
	})
	if ran != 2 {
		t.Errorf("WithLock bodies ran %d times", ran)
	}
}

func TestLockAddr(t *testing.T) {
	if NewLock(0x2040).Addr() != 0x2040 {
		t.Error("Addr mismatch")
	}
}

func TestBarrierAllArriveBeforeAnyLeaves(t *testing.T) {
	const procs = 4
	bar := NewBarrier(0x3000, procs)
	arrive := make([]uint64, procs)
	leave := make([]uint64, procs)
	rig(t, procs, func(tid int) cpu.Program {
		return func(c *cpu.Port) {
			var ctx Context
			c.Think(uint64(tid) * 777)
			arrive[tid] = c.Now()
			bar.Wait(c, &ctx)
			leave[tid] = c.Now()
		}
	})
	var lastArrive uint64
	for _, a := range arrive {
		if a > lastArrive {
			lastArrive = a
		}
	}
	for tid, l := range leave {
		if l < lastArrive {
			t.Errorf("thread %d left at %d before last arrival %d", tid, l, lastArrive)
		}
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	const procs, phases = 3, 5
	bar := NewBarrier(0x3000, procs)
	counts := make([]int, phases)
	rig(t, procs, func(tid int) cpu.Program {
		return func(c *cpu.Port) {
			var ctx Context
			for ph := 0; ph < phases; ph++ {
				counts[ph]++
				bar.Wait(c, &ctx)
				// After the barrier, every thread must observe all
				// arrivals of this phase.
				if counts[ph] != procs {
					t.Errorf("phase %d: saw %d arrivals after barrier", ph, counts[ph])
				}
				bar.Wait(c, &ctx)
			}
		}
	})
}

func TestBarrierOfOne(t *testing.T) {
	bar := NewBarrier(0x3000, 1)
	rig(t, 1, func(tid int) cpu.Program {
		return func(c *cpu.Port) {
			var ctx Context
			for i := 0; i < 3; i++ {
				bar.Wait(c, &ctx) // must not deadlock
			}
		}
	})
}

func TestBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBarrier(_, 0) did not panic")
		}
	}()
	NewBarrier(0, 0)
}

func TestLockHandoffUnderContention(t *testing.T) {
	// All threads repeatedly lock; total acquisitions must equal the sum
	// of iterations, demonstrating no lost wakeups or stolen locks.
	const procs, iters = 4, 40
	lock := NewLock(0x1000)
	total := 0
	rig(t, procs, func(tid int) cpu.Program {
		return func(c *cpu.Port) {
			for k := 0; k < iters; k++ {
				lock.Acquire(c)
				total++
				lock.Release(c)
			}
		}
	})
	if total != procs*iters {
		t.Errorf("total acquisitions %d, want %d", total, procs*iters)
	}
}
