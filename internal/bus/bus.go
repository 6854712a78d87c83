// Package bus models the shared snooping bus of the SMP — the component
// SENSS protects.
//
// The bus serializes transactions through a FIFO arbiter.  Each granted
// transaction is snooped by every node (function calls, instantaneous in
// simulated time), resolved against memory if no cache supplies the line,
// passed through the registered security hooks (the SENSS SHU layer, and
// through it the attack interposer), and finally charged occupancy and
// latency cycles per the paper's Figure 5 timing.
package bus

import (
	"fmt"

	"senss/internal/sim"
)

// Kind enumerates bus transaction types. Rd/RdX/Upgr/WB are the MESI
// write-invalidate protocol transactions; Auth, PadInv and PadReq are the
// SENSS additions (message types "00", "01" and "10" of paper §7.1).
type Kind uint8

// Transaction kinds.
const (
	Rd     Kind = iota // read miss; data response
	RdX                // read-for-ownership; data response, others invalidate
	Upgr               // S→M upgrade; address-only, others invalidate
	WB                 // write back a dirty line to memory
	Auth               // SENSS bus-authentication MAC broadcast
	PadInv             // memsec pad invalidate (address-only)
	PadReq             // memsec pad (sequence number) request
	PadUpd             // memsec pad update (write-update variant, §6.1)
	kindCount
)

// NumKinds is the number of transaction kinds, for stats arrays.
const NumKinds = int(kindCount)

// String returns the mnemonics used in reports.
func (k Kind) String() string {
	switch k {
	case Rd:
		return "BusRd"
	case RdX:
		return "BusRdX"
	case Upgr:
		return "BusUpgr"
	case WB:
		return "BusWB"
	case Auth:
		return "BusAuth"
	case PadInv:
		return "BusPadInv"
	case PadReq:
		return "BusPadReq"
	case PadUpd:
		return "BusPadUpd"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// HasData reports whether the transaction carries a full line payload.
//
// senss-lint:hotpath
func (k Kind) HasData() bool { return k == Rd || k == RdX || k == WB }

// MemorySupplier is the SupplierID value meaning "data came from memory".
const MemorySupplier = -1

// Transaction is one bus operation. The requester fills Kind/Addr/Src/GID;
// snooping and the memory port fill the response fields.
type Transaction struct {
	Kind Kind
	Addr uint64
	Src  int // requesting (or originating) processor ID
	GID  int // SENSS group ID tag

	// Data is the line payload for Rd/RdX (response) and WB (request), or
	// the MAC bytes for Auth.
	Data []byte

	// SupplierID is the PID of the cache that supplied Data, or
	// MemorySupplier. Meaningful for Rd/RdX.
	SupplierID int

	// Shared is set during snooping when another cache retains a copy.
	Shared bool

	// Extra accumulates security-layer cycles (mask stalls, pad misses)
	// charged while the bus is held.
	Extra uint64

	// PreSnoop, if set, runs after the bus grant and before snooping. It
	// lets the requester revalidate local state that may have changed
	// while the request waited for arbitration — e.g. an S line that a
	// queued RdX invalidated, forcing a planned Upgr to become an RdX.
	PreSnoop func(t *Transaction)

	// OnData, if set, runs while the bus is still held, after snooping,
	// memory resolution, and security hooks. The requester commits its
	// cache-state change (line insertion, store value) here so the whole
	// transaction is atomic at the coherence point; the latency cycles are
	// charged afterwards.
	OnData func(t *Transaction)

	// Committed marks a WB whose memory contents were already committed
	// at the coherence point (inside the evicting transaction's OnData);
	// the bus then charges timing and stats only.
	Committed bool
}

// CacheToCache reports whether this is a cache-to-cache data transfer —
// the traffic class SENSS encrypts and authenticates.
//
// senss-lint:hotpath
func (t *Transaction) CacheToCache() bool {
	return (t.Kind == Rd || t.Kind == RdX) && t.SupplierID != MemorySupplier
}

// Snooper is a node observing the bus. Snoop runs for every transaction
// not originated by the node; a node holding the line in M or E must copy
// it into t.Data, set t.SupplierID, and apply its own downgrade.
type Snooper interface {
	SnoopBus(t *Transaction)
}

// MemoryPort services transactions that reach main memory. The memsec
// layer wraps the plain port with pad encryption; extra is any
// non-overlapped crypto latency to charge the requester.
type MemoryPort interface {
	Fetch(t *Transaction, dst []byte) (extra uint64)
	Store(t *Transaction, src []byte) (extra uint64)
}

// SecurityHook observes every granted transaction while the bus is held.
// The SENSS SHU layer implements it; hooks may sleep (never while mutating
// shared bus state), transform payloads, and return extra cycles to charge.
type SecurityHook interface {
	OnTransaction(p *sim.Proc, t *Transaction) (extra uint64)
}

// Timing holds the bus latency parameters (paper Figure 5 defaults are in
// package machine).
type Timing struct {
	BusCycle         uint64 // CPU cycles per bus cycle
	C2CLat           uint64 // requester latency for a cache-supplied line
	MemLat           uint64 // requester latency for a memory-supplied line
	BytesPerBusCycle int    // data bus width per bus cycle
	LineBytes        int    // cache line size carried by data transactions
}

// Occupancy returns how many CPU cycles the bus is held by a transaction
// of kind k.
//
// senss-lint:hotpath
func (tm *Timing) Occupancy(k Kind) uint64 {
	if k.HasData() {
		cycles := (tm.LineBytes + tm.BytesPerBusCycle - 1) / tm.BytesPerBusCycle
		return uint64(cycles) * tm.BusCycle
	}
	return tm.BusCycle // address-only, Auth MAC, pad messages: one bus cycle
}

// Latency returns the requester-visible latency from grant to completion.
//
// senss-lint:hotpath
func (tm *Timing) Latency(t *Transaction) uint64 {
	switch t.Kind {
	case Rd, RdX:
		if t.SupplierID != MemorySupplier {
			return tm.C2CLat
		}
		return tm.MemLat
	case WB:
		return tm.Occupancy(WB)
	default:
		return tm.Occupancy(t.Kind)
	}
}

// Stats aggregates bus activity.
type Stats struct {
	Count       [NumKinds]uint64
	C2CCount    uint64 // Rd/RdX supplied cache-to-cache
	MemCount    uint64 // Rd/RdX supplied by memory
	BusyCycles  uint64
	DataBytes   uint64
	ExtraCycles uint64 // security-layer cycles charged on the bus

	// Arbitration contention: how many requests had to wait for a grant,
	// the cycles they spent waiting, and the worst single wait.
	ArbWaits      uint64
	ArbWaitCycles uint64
	ArbWaitMax    uint64
}

// Total returns the total number of transactions.
func (s *Stats) Total() uint64 {
	var n uint64
	for _, c := range s.Count {
		n += c
	}
	return n
}

// Bus is the shared snooping bus.
type Bus struct {
	engine   *sim.Engine
	timing   Timing
	arbiter  sim.Mutex
	snoopers []Snooper
	memory   MemoryPort
	hooks    []SecurityHook

	// wbScratch is the reusable transaction record for CommitStore: dirty
	// victims are committed once per eviction on the steady state, and the
	// memory port never retains the record, so one scratch header replaces
	// a per-writeback heap allocation (hotpath discipline, DESIGN.md §13).
	wbScratch Transaction

	// tails holds each proc's tenure tail, indexed by sim.Proc.ID.
	tails []*tail

	// OnCommitStore, if set, observes every functional memory write made
	// through CommitStore — the coherence-point commit of a dirty victim,
	// which happens inside another transaction's bus tenure, before the
	// victim's own Committed WB rides the bus. The lockstep oracle needs
	// this signal to keep its reference memory image current: between the
	// commit and the timing WB, other transactions may legally read the
	// fresh memory contents.
	OnCommitStore func(src, gid int, addr uint64, data []byte)

	Stats Stats
}

// New creates a bus with the given timing and memory port.
func New(engine *sim.Engine, timing Timing, memory MemoryPort) *Bus {
	return &Bus{engine: engine, timing: timing, memory: memory}
}

// Timing returns the bus timing parameters.
func (b *Bus) Timing() Timing { return b.timing }

// CommitStore writes a dirty victim's contents to memory functionally at
// the coherence point (inside an OnData callback); the evicting node then
// issues a Committed WB transaction for the bus timing and traffic.
//
// senss-lint:hotpath
func (b *Bus) CommitStore(src, gid int, addr uint64, data []byte) {
	if b.OnCommitStore != nil {
		b.OnCommitStore(src, gid, addr, data)
	}
	b.wbScratch = Transaction{Kind: WB, Addr: addr, Src: src, GID: gid, Data: data}
	b.memory.Store(&b.wbScratch, data)
	// Drop the payload reference so the scratch header does not pin the
	// caller's buffer past the commit.
	b.wbScratch.Data = nil
}

// AttachSnooper registers a node; snoop order follows attachment order
// (ascending PID by convention).
func (b *Bus) AttachSnooper(s Snooper) { b.snoopers = append(b.snoopers, s) }

// AttachHook registers a security hook, called in attachment order.
func (b *Bus) AttachHook(h SecurityHook) { b.hooks = append(b.hooks, h) }

// Transact performs t on behalf of proc p, blocking in simulated time for
// arbitration, snooping, data resolution, security processing, occupancy
// and latency. On return, Rd/RdX transactions carry the line in t.Data.
//
// The tenure's tail — hold the bus for the stall and occupancy, release
// it, wait out the rest of the latency — is one wake continuation
// (sim.Proc.SettleThen): the release runs in engine context at the
// proc's wake, where the proc itself would run it, and Unlock's Unpark
// draws the sequence number the proc would draw. The proc is resumed
// once, at the end of the latency.
//
// senss-lint:hotpath
func (b *Bus) Transact(p *sim.Proc, t *Transaction) {
	busy, rest := b.hold(p, t)
	tl := b.tailOf(p)
	tl.rest, tl.held = rest, true
	p.Owe(busy)
	p.SettleThen(tl.k)
}

// hold acquires the bus for t and runs the transaction up to its commit
// point: arbitration, snooping, data resolution, security processing,
// the requester's commit and the statistics. It returns the cycles the
// bus stays held (security stall plus occupancy) and the latency the
// requester waits after the release.
//
// senss-lint:hotpath
func (b *Bus) hold(p *sim.Proc, t *Transaction) (busy, rest uint64) {
	requested := b.engine.Now()
	b.arbiter.Lock(p)
	if wait := b.engine.Now() - requested; wait > 0 {
		b.Stats.ArbWaits++
		b.Stats.ArbWaitCycles += wait
		if wait > b.Stats.ArbWaitMax {
			b.Stats.ArbWaitMax = wait
		}
	}

	if t.PreSnoop != nil {
		t.PreSnoop(t)
	}
	t.SupplierID = MemorySupplier
	t.Shared = false

	// Address phase: everyone snoops. A supplier fills t.Data.
	if (t.Kind == Rd || t.Kind == RdX) && t.Data == nil {
		//senss-lint:ignore hotpath fallback for requesters without preallocated buffers (tests, direct bus users); hot nodes pass their fill buffers
		t.Data = make([]byte, b.timing.LineBytes)
	}
	for _, s := range b.snoopers {
		s.SnoopBus(t)
	}

	// Data phase: memory services the transaction if no cache did.
	var extra uint64
	switch t.Kind {
	case Rd, RdX:
		if t.SupplierID == MemorySupplier {
			extra += b.memory.Fetch(t, t.Data)
			b.Stats.MemCount++
		} else {
			b.Stats.C2CCount++
		}
	case WB:
		if !t.Committed {
			extra += b.memory.Store(t, t.Data)
		}
	}

	// Security processing (SENSS SHU pipeline, attack interposer).
	for _, h := range b.hooks {
		//senss-lint:ignore hotpath hook fan-out reaches config-dependent debug and oracle rigs; the production SHU path is hot-annotated
		extra += h.OnTransaction(p, t)
	}
	t.Extra = extra

	// Commit point: the requester applies its state change atomically.
	if t.OnData != nil {
		t.OnData(t)
	}

	// Timing: the bus is held for stall + occupancy; the requester also
	// waits out the remaining latency after release (split-transaction
	// flavor: the tail of the latency does not hold the bus).
	occ := b.timing.Occupancy(t.Kind)
	lat := b.timing.Latency(t)
	b.Stats.Count[t.Kind]++
	b.Stats.BusyCycles += occ + extra
	b.Stats.ExtraCycles += extra
	if t.Kind.HasData() {
		b.Stats.DataBytes += uint64(b.timing.LineBytes)
	}
	if lat > occ {
		rest = lat - occ
	}
	return extra + occ, rest
}

// tail is one proc's bus-tenure tail, played as a wake continuation:
// at the end of the hold it releases the arbiter, then sleeps the rest
// of the latency. Each proc's is bound once (tailOf) and reused.
type tail struct {
	b    *Bus
	p    *sim.Proc
	rest uint64 // latency left after the release
	held bool   // the next wake ends the hold
	k    sim.Cont
}

// step is the tail's continuation.
//
// senss-lint:hotpath
func (tl *tail) step() (uint64, bool) {
	if !tl.held {
		return 0, false // the latency has passed
	}
	tl.held = false
	tl.b.arbiter.Unlock(tl.p)
	return tl.rest, tl.rest > 0
}

// tailOf returns p's tenure tail.
//
// senss-lint:hotpath
func (b *Bus) tailOf(p *sim.Proc) *tail {
	if id := p.ID(); id < len(b.tails) && b.tails[id] != nil {
		return b.tails[id]
	}
	return b.newTail(p)
}

// newTail binds p's tenure tail on its first transaction.
//
// senss-lint:coldpath first touch: one tail per proc, bound once and reused for the whole run
func (b *Bus) newTail(p *sim.Proc) *tail {
	for len(b.tails) <= p.ID() {
		b.tails = append(b.tails, nil)
	}
	tl := &tail{b: b, p: p}
	tl.k = tl.step
	b.tails[p.ID()] = tl
	return tl
}

// RecordInjected accounts for a transaction issued piggybacked on another
// transaction's bus tenure — the SENSS layer triggers the periodic
// authentication broadcast from within OnTransaction, so the MAC message
// rides immediately after the saturating transfer. It returns the
// occupancy cycles the caller must charge (via its extra-cycles return).
//
// senss-lint:hotpath
func (b *Bus) RecordInjected(k Kind) uint64 {
	b.Stats.Count[k]++
	occ := b.timing.Occupancy(k)
	b.Stats.BusyCycles += occ
	return occ
}
