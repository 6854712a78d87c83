// Package cpu models the in-order processor that executes a simulated
// program against a coherence node.
//
// A Program is plain Go code run inside a sim.Proc; every memory operation
// blocks for its simulated latency, and a configurable CPI charge plus an
// instruction-fetch model account for the non-memory work between
// operations.
package cpu

import (
	"senss/internal/coherence"
	"senss/internal/sim"
)

// Program is the code a simulated processor runs. It must perform all
// shared-memory access through the Port.
type Program func(c *Port)

// Params configures the execution model.
type Params struct {
	// OpGap is the compute charge (cycles) between consecutive memory
	// operations — a crude CPI model for the non-memory instructions.
	OpGap uint64
	// CodeBase and CodeBytes describe the program text region used by the
	// instruction-fetch model. Text is shared (read-only) across all
	// processors of a group, as for a real parallel program.
	CodeBase  uint64
	CodeBytes uint64
	// IFetchBytes is how many code bytes each memory operation "consumes";
	// an L1I probe happens whenever the stream crosses a line. Zero
	// disables instruction-fetch modeling.
	IFetchBytes uint64

	// Gate, when set, is checked before every operation: the program
	// parks while the gate is closed (time-sharing preemption, §4.2).
	Gate *Gate
}

// Port is the processor-side memory interface handed to a Program.
type Port struct {
	proc   *sim.Proc
	node   *coherence.Node
	params Params

	pc uint64 // byte position in the text region

	// spin is the SpinUntil in progress; spinWake, bound once at Spawn,
	// is its wake continuation.
	spin     spinState
	spinWake sim.Cont
}

// spinState is one SpinUntil: its operands and which wake comes next.
type spinState struct {
	addr, want, backoff uint64
	next                spinLeg
}

// spinLeg names the event a spinning proc's next wake marks. A probe
// that does not find want is three legs: the op gap ending in the probe,
// the L1HitLat the probe leaves owed, and the backoff.
type spinLeg uint8

const (
	spinOwed     spinLeg = iota // the last probe's owed latency ends
	spinBoundary                // the backoff ends: the next op's gate and gap
	spinProbe                   // the gap ends: the probe itself
)

// Spawn starts prog on a new proc of e bound to node. exit, when non-nil,
// runs on that proc once prog returns, at the cycle its last operation
// completes (any latency the node left owed is taken first).
func Spawn(e *sim.Engine, name string, node *coherence.Node, params Params, prog Program, exit func()) {
	e.Spawn(name, func(p *sim.Proc) {
		c := &Port{proc: p, node: node, params: params}
		c.spinWake = c.spinStep
		prog(c)
		p.Settle()
		if exit != nil {
			exit()
		}
	})
}

// PID returns the processor ID.
func (c *Port) PID() int { return c.node.ID }

// Now returns the current simulated cycle.
func (c *Port) Now() uint64 { return c.proc.Now() }

// step charges the per-op compute gap and the instruction-fetch model.
// The gap sleep also takes the latency the previous operation left owed;
// with no gap, that latency is settled on its own.
//
// senss-lint:hotpath
func (c *Port) step() {
	if c.params.Gate != nil {
		c.params.Gate.check(c.proc)
	}
	if c.params.OpGap > 0 {
		c.proc.Sleep(c.params.OpGap)
	} else {
		c.proc.Settle()
	}
	c.fetch()
}

// fetch advances the instruction-fetch model by one operation.
//
// senss-lint:hotpath
func (c *Port) fetch() {
	pc, line, cross := c.nextFetch()
	c.pc = pc
	if cross {
		c.node.IFetch(c.proc, line)
	}
}

// nextFetch returns the text position after the next operation's fetch
// and, when that fetch crosses into a new line, the line it fetches.
//
// senss-lint:hotpath
func (c *Port) nextFetch() (pc, line uint64, cross bool) {
	if c.params.IFetchBytes == 0 || c.params.CodeBytes == 0 {
		return c.pc, 0, false
	}
	l := uint64(c.node.Params.L1Line)
	pc = (c.pc + c.params.IFetchBytes) % c.params.CodeBytes
	return pc, c.params.CodeBase + (pc/l)*l, pc/l != c.pc/l
}

// Load reads the aligned 8-byte word at addr.
//
// senss-lint:hotpath
func (c *Port) Load(addr uint64) uint64 {
	c.step()
	return c.node.Load(c.proc, addr)
}

// SpinUntil spins until the word at addr reads want. It is exactly
//
//	for c.Load(addr) != want {
//		c.Think(backoff)
//	}
//
// — the same loads, latencies, cache and bus traffic and event order —
// but each probe that hits L1 and reads something other than want runs
// in engine context (sim.Proc.SettleThen), so the proc is not resumed for
// it. The proc takes over at the exact boundary where the loop does more
// than re-read a cached word: a closed Gate, an L1 miss, or the probe
// that reads want.
//
// senss-lint:hotpath
func (c *Port) SpinUntil(addr, want, backoff uint64) {
	c.spin = spinState{addr: addr, want: want, backoff: backoff}
	v := c.Load(addr)
	for v != want {
		c.spin.next = spinOwed
		c.proc.SettleThen(c.spinWake)
		if c.spin.next == spinBoundary {
			v = c.Load(addr) // handed back at a closed gate
		} else {
			c.fetch() // handed back at a probe the continuation cannot take
			v = c.node.Load(c.proc, addr)
		}
	}
}

// spinStep is SpinUntil's wake continuation: it plays the loop's legs in
// engine context and hands the proc back, before touching anything, at
// the first event the loop cannot take there.
//
// senss-lint:hotpath
func (c *Port) spinStep() (uint64, bool) {
	s := &c.spin
	switch s.next {
	case spinOwed:
		if s.backoff > 0 {
			s.next = spinBoundary
			return s.backoff, true
		}
		fallthrough
	case spinBoundary:
		if g := c.params.Gate; g != nil && g.closed {
			s.next = spinBoundary
			return 0, false
		}
		if c.params.OpGap > 0 {
			s.next = spinProbe
			return c.params.OpGap, true
		}
	}
	// The gap has ended: the probe.
	s.next = spinProbe
	pc, line, cross := c.nextFetch()
	if v, hit := c.node.PeekHit(line, cross, s.addr); !hit || v == s.want {
		return 0, false
	}
	c.pc = pc
	c.node.TakeHit(line, cross, s.addr)
	s.next = spinOwed
	return c.node.Params.L1HitLat, true
}

// Store writes the aligned 8-byte word at addr.
func (c *Port) Store(addr uint64, val uint64) {
	c.step()
	c.node.Store(c.proc, addr, val)
}

// Add atomically adds delta to the word at addr, returning the old value.
//
// senss-lint:hotpath
func (c *Port) Add(addr uint64, delta uint64) uint64 {
	c.step()
	return c.node.Add(c.proc, addr, delta)
}

// CAS atomically replaces old with new at addr if it matches, reporting
// success.
//
// senss-lint:hotpath
func (c *Port) CAS(addr uint64, old, new uint64) bool {
	c.step()
	return c.node.CAS(c.proc, addr, old, new) == old
}

// Think charges n cycles of pure computation.
func (c *Port) Think(n uint64) {
	if n > 0 {
		c.proc.Sleep(n)
	}
}

// LoadFloat reads a float64 stored with StoreFloat.
func (c *Port) LoadFloat(addr uint64) float64 {
	return float64frombits(c.Load(addr))
}

// StoreFloat writes a float64 as its IEEE-754 bits.
func (c *Port) StoreFloat(addr uint64, v float64) {
	c.Store(addr, float64bits(v))
}
