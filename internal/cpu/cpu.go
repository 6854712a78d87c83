// Package cpu models the in-order processor that executes a simulated
// program against a coherence node.
//
// A Program is plain Go code run inside a sim.Proc; every memory operation
// takes its simulated latency, and a configurable CPI charge plus an
// instruction-fetch model account for the non-memory work between
// operations.
//
// The Port is write-behind. Store, LoadN and SpinUntil queue their ops in
// a small Port-owned buffer; the ops retire at the very events, in the
// very order, that one call per op would reach them, but the proc is
// resumed once per batch instead of once per op. One wake continuation
// (sim.Proc.SettleThen) plays each op's gate check, compute gap and
// instruction fetch, and then the op itself through the node's
// non-blocking hit steps (coherence.Node.FetchHit, TryLoad, TryStore), in
// engine context; the proc itself plays what those steps cannot: a closed
// gate, a cache miss, a store that needs the bus. Every op that returns a
// value or reads the clock (Load, LoadN, Add, CAS, SpinUntil, Now) plays
// the queue first, as do Think and the program's return. A Program
// therefore never sees a queued store unless it reads simulated memory
// through the Port, which is its only channel to the other processors.
package cpu

import (
	"math"

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

	// batch holds the ops Store, LoadN, Load and SpinUntil queued;
	// batchWake, bound once at Spawn, is the continuation that plays them.
	batch     batch
	batchWake sim.Cont
}

// batchCap is how many ops a Port holds back before it plays them.
const batchCap = 16

// opKind says what a queued op does.
type opKind uint8

const (
	opLoad  opKind = iota // one load of a LoadN or Load
	opStore               // a Store
	opSpin                // SpinUntil's probe, repeated until it reads val
)

// pendingOp is one queued op.
type pendingOp struct {
	addr uint64
	val  uint64 // the store's word, the word the load returned, or the spin's want
	kind opKind
}

// batch is the ops queued since the last flush and how far playing them
// has got. The loads' values stay here until the caller copies them
// out, so no caller slice is ever held by the Port.
type batch struct {
	ops     [batchCap]pendingOp
	n       int    // ops queued
	done    int    // ops played
	next    leg    // the event the continuation's next wake marks
	owed    uint64 // the latency the last op played leaves owed
	backoff uint64 // the queued spin's wait between probes
}

// leg names the event the continuation's next wake marks. An op is its
// boundary (the gate check and the op gap), its probe (the instruction
// fetch) and, once the fetch is taken, the op itself; a spin probe that
// does not read want leaves its latency owed and then waits the backoff.
type leg uint8

const (
	legBackoff  leg = iota // the last spin probe's owed latency ends
	legBoundary            // the next op's gate and gap
	legProbe               // the gap ends: the op's fetch, then the op
	legFetched             // the fetch is taken: the op itself
)

// Spawn starts prog on a new proc of e bound to node. exit, when non-nil,
// runs on that proc once prog returns, at the cycle its last operation
// completes (queued ops are played and any latency the node left owed is
// taken first).
func Spawn(e *sim.Engine, name string, node *coherence.Node, params Params, prog Program, exit func()) {
	e.Spawn(name, func(p *sim.Proc) {
		c := &Port{proc: p, node: node, params: params}
		c.batchWake = c.batchStep
		prog(c)
		c.flush()
		p.Settle()
		if exit != nil {
			exit()
		}
	})
}

// PID returns the processor ID.
func (c *Port) PID() int { return c.node.ID }

// Now returns the current simulated cycle, once the queued ops have
// retired.
func (c *Port) Now() uint64 {
	c.flush()
	return c.proc.Now()
}

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
	pc = c.pc + c.params.IFetchBytes
	if pc >= c.params.CodeBytes {
		pc %= c.params.CodeBytes
	}
	// The L1 line size is a power of two (cache.New).
	at := ^(uint64(c.node.Params.L1Line) - 1)
	return pc, c.params.CodeBase + pc&at, pc&at != c.pc&at
}

// Load reads the aligned 8-byte word at addr. With ops queued, it joins
// them as the batch's last op.
//
// senss-lint:hotpath
func (c *Port) Load(addr uint64) uint64 {
	b := &c.batch
	if b.n == batchCap {
		c.flush()
	}
	if b.n == 0 {
		c.step()
		return c.node.Load(c.proc, addr)
	}
	k := b.n
	b.ops[k] = pendingOp{addr: addr}
	b.n++
	c.flush()
	return b.ops[k].val
}

// LoadN reads the words at addrs into out. It is exactly
//
//	for i := range addrs {
//		out[i] = c.Load(addrs[i])
//	}
//
// — the same loads, latencies, cache and bus traffic and event order —
// but the loads join the queued ops, so a batch of cache hits costs one
// resume of the proc. out must be at least as long as addrs.
//
// senss-lint:hotpath
func (c *Port) LoadN(addrs, out []uint64) {
	out = out[:len(addrs)]
	b := &c.batch
	for len(addrs) > 0 {
		k := b.n
		m := min(len(addrs), batchCap-k)
		for j, a := range addrs[:m] {
			b.ops[k+j] = pendingOp{addr: a}
		}
		b.n += m
		c.flush()
		for j := range out[:m] {
			out[j] = b.ops[k+j].val
		}
		addrs, out = addrs[m:], out[m:]
	}
}

// Store writes the aligned 8-byte word at addr. It queues the store and
// returns at once; the store retires at its own simulated event when the
// queue is played.
//
// senss-lint:hotpath
func (c *Port) Store(addr uint64, val uint64) {
	b := &c.batch
	if b.n == batchCap {
		c.flush()
	}
	b.ops[b.n] = pendingOp{addr: addr, val: val, kind: opStore}
	b.n++
}

// flush plays the queued ops in order, each at the event where one call
// per op would play it, and returns at the last op's event with that
// op's latency owed. The continuation (batchStep) plays every leg it can
// in engine context; at the leg where it hands the proc back, the proc
// plays the rest of that op with the blocking calls and gives the
// continuation the next leg.
//
// senss-lint:hotpath
func (c *Port) flush() {
	b := &c.batch
	b.next = legBoundary
	for b.done < b.n {
		c.proc.SettleThen(c.batchWake)
		if b.done == b.n {
			c.proc.Owe(b.owed)
			break
		}
		switch b.next {
		case legBoundary:
			c.step() // handed back at a closed gate
		case legProbe:
			c.fetch() // handed back at an L1I miss
		case legFetched:
			// handed back at the op itself, its fetch taken
		}
		op := &b.ops[b.done]
		b.next = legBoundary
		switch op.kind {
		case opStore:
			c.node.Store(c.proc, op.addr, op.val)
		case opLoad:
			op.val = c.node.Load(c.proc, op.addr)
		case opSpin:
			if c.node.Load(c.proc, op.addr) != op.val {
				b.next = legBackoff
				continue
			}
		}
		b.done++
	}
	b.n, b.done = 0, 0
}

// batchStep is flush's wake continuation: it plays the queued ops' legs
// in engine context and hands the proc back at a closed gate, an L1I
// miss, an L2 miss or a store that needs the bus — each before touching
// anything — or, having played the last op, at that op's event.
//
// senss-lint:hotpath
func (c *Port) batchStep() (uint64, bool) {
	b := &c.batch
	switch b.next {
	case legBackoff:
		if b.backoff > 0 {
			b.next = legBoundary
			return b.backoff, true
		}
		fallthrough
	case legBoundary:
		if g := c.params.Gate; g != nil && g.closed {
			b.next = legBoundary
			return 0, false
		}
		if c.params.OpGap > 0 {
			b.next = legProbe
			return c.params.OpGap, true
		}
		fallthrough
	case legProbe:
		b.next = legProbe
		pc, line, cross := c.nextFetch()
		if cross && !c.node.FetchHit(line) {
			return 0, false
		}
		c.pc = pc
		b.next = legFetched
	}
	// The fetch is taken: the op itself.
	op := &b.ops[b.done]
	if op.kind == opStore {
		if !c.node.TryStore(op.addr, op.val) {
			return 0, false
		}
		b.owed = c.node.Params.StoreLat
	} else {
		v, lat, ok := c.node.TryLoad(op.addr)
		if !ok {
			return 0, false
		}
		b.owed = lat
		if op.kind == opSpin && v != op.val {
			b.next = legBackoff
			return lat, true
		}
		op.val = v
	}
	b.done++
	if b.done == b.n {
		return 0, false
	}
	b.next = legBoundary
	return b.owed, true
}

// SpinUntil spins until the word at addr reads want. It is exactly
//
//	for c.Load(addr) != want {
//		c.Think(backoff)
//	}
//
// — the same loads, latencies, cache and bus traffic and event order —
// but the probes join the queued ops as their last op, so every probe
// that hits L1 or L2, the one that reads want included, runs in engine
// context (sim.Proc.SettleThen) and the proc is not resumed for it.
//
// senss-lint:hotpath
func (c *Port) SpinUntil(addr, want, backoff uint64) {
	b := &c.batch
	if b.n == batchCap {
		c.flush()
	}
	b.ops[b.n] = pendingOp{addr: addr, val: want, kind: opSpin}
	b.n++
	b.backoff = backoff
	c.flush()
}

// Add atomically adds delta to the word at addr, returning the old value.
//
// senss-lint:hotpath
func (c *Port) Add(addr uint64, delta uint64) uint64 {
	c.flush()
	c.step()
	return c.node.Add(c.proc, addr, delta)
}

// CAS atomically replaces old with new at addr if it matches, reporting
// success.
//
// senss-lint:hotpath
func (c *Port) CAS(addr uint64, old, new uint64) bool {
	c.flush()
	c.step()
	return c.node.CAS(c.proc, addr, old, new) == old
}

// Think charges n cycles of pure computation after the queued ops.
//
// senss-lint:hotpath
func (c *Port) Think(n uint64) {
	c.flush()
	if n > 0 {
		c.proc.Sleep(n)
	}
}

// LoadFloat reads a float64 stored with StoreFloat.
func (c *Port) LoadFloat(addr uint64) float64 {
	return math.Float64frombits(c.Load(addr))
}

// StoreFloat writes a float64 as its IEEE-754 bits.
func (c *Port) StoreFloat(addr uint64, v float64) {
	c.Store(addr, math.Float64bits(v))
}
