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
}

// Spawn starts prog on a new proc of e bound to node. exit, when non-nil,
// runs on that proc once prog returns, at the cycle its last operation
// completes (any latency the node left owed is taken first).
func Spawn(e *sim.Engine, name string, node *coherence.Node, params Params, prog Program, exit func()) {
	e.Spawn(name, func(p *sim.Proc) {
		prog(&Port{proc: p, node: node, params: params})
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
func (c *Port) step() {
	if c.params.Gate != nil {
		c.params.Gate.check(c.proc)
	}
	if c.params.OpGap > 0 {
		c.proc.Sleep(c.params.OpGap)
	} else {
		c.proc.Settle()
	}
	if c.params.IFetchBytes > 0 && c.params.CodeBytes > 0 {
		line := uint64(c.node.Params.L1Line)
		before := c.pc / line
		c.pc = (c.pc + c.params.IFetchBytes) % c.params.CodeBytes
		if c.pc/line != before {
			c.node.IFetch(c.proc, c.params.CodeBase+(c.pc/line)*line)
		}
	}
}

// Load reads the aligned 8-byte word at addr.
func (c *Port) Load(addr uint64) uint64 {
	c.step()
	return c.node.Load(c.proc, addr)
}

// Store writes the aligned 8-byte word at addr.
func (c *Port) Store(addr uint64, val uint64) {
	c.step()
	c.node.Store(c.proc, addr, val)
}

// RMW atomically applies f to the word at addr and returns the old value.
func (c *Port) RMW(addr uint64, f func(uint64) uint64) uint64 {
	c.step()
	return c.node.RMW(c.proc, addr, f)
}

// Add atomically adds delta to the word at addr, returning the old value.
func (c *Port) Add(addr uint64, delta uint64) uint64 {
	return c.RMW(addr, func(v uint64) uint64 { return v + delta })
}

// CAS atomically replaces old with new at addr if it matches, reporting
// success.
func (c *Port) CAS(addr uint64, old, new uint64) bool {
	swapped := false
	c.RMW(addr, func(v uint64) uint64 {
		if v == old {
			swapped = true
			return new
		}
		return v
	})
	return swapped
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
