// Package psync provides the synchronization primitives the parallel
// workloads use — spinlocks and sense-reversing barriers — built purely on
// the simulated memory interface, so lock and barrier traffic flows through
// the coherence protocol (and therefore through SENSS) exactly like any
// other sharing.
package psync

import (
	"fmt"

	"senss/internal/cpu"
)

// Lock is a test-and-test-and-set spinlock occupying one simulated word.
type Lock struct {
	addr uint64
}

// NewLock returns a lock at the given word address, which must be zeroed
// (unlocked) before use.
func NewLock(addr uint64) *Lock { return &Lock{addr: addr} }

// Addr returns the lock word's address.
func (l *Lock) Addr() uint64 { return l.addr }

// spinBackoff is the compute delay between spin probes, keeping the
// polling rate realistic without flooding the local cache counters.
const spinBackoff = 10

// Acquire spins until the lock is held by the caller.
func (l *Lock) Acquire(c *cpu.Port) {
	for {
		if c.CAS(l.addr, 0, 1) {
			return
		}
		// Test-and-test-and-set: spin on local (cached, Shared) reads so
		// the wait generates no bus traffic until the holder releases.
		c.SpinUntil(l.addr, 0, spinBackoff)
	}
}

// Release unlocks. Only the holder may call it.
func (l *Lock) Release(c *cpu.Port) {
	c.Store(l.addr, 0)
}

// WithLock runs fn under the lock.
func (l *Lock) WithLock(c *cpu.Port, fn func()) {
	l.Acquire(c)
	fn()
	l.Release(c)
}

// Barrier is a centralized sense-reversing barrier for n participants. It
// occupies two simulated words (count at addr, sense at addr+8) and each
// participant keeps its local sense in Context.
type Barrier struct {
	n     int
	count uint64
	sense uint64
}

// NewBarrier returns a barrier for n participants using two words at addr
// (which must be zeroed).
func NewBarrier(addr uint64, n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("psync: barrier of %d", n))
	}
	return &Barrier{n: n, count: addr, sense: addr + 8}
}

// Context is a participant's barrier-local state; zero value is ready.
type Context struct {
	sense uint64
}

// Wait blocks (in simulated time) until all n participants arrive.
func (b *Barrier) Wait(c *cpu.Port, ctx *Context) {
	ctx.sense ^= 1
	arrived := c.Add(b.count, 1) + 1
	if int(arrived) == b.n {
		c.Store(b.count, 0)
		c.Store(b.sense, ctx.sense) // release everyone
		return
	}
	c.SpinUntil(b.sense, ctx.sense, spinBackoff)
}
