// Package coherence implements a processor node of the snooping SMP: a
// split L1 (instruction/data, write-through) in front of a unified
// write-back L2 kept coherent with the other nodes by a MOESI
// write-invalidate protocol over the shared bus.
//
// All methods are written in blocking style and must be called from a
// sim.Proc; they charge the Figure-5 latencies by sleeping.  Snooping
// happens synchronously inside the requester's bus tenure, and every
// cache-state change commits atomically at the coherence point (an L2 hit
// before any sleep, or the bus grant via Transaction.OnData for misses), so
// in-flight requests can never install stale lines.
//
// Load, Store and the atomics (Add, CAS) end with their trailing latency
// owed rather than slept (sim.Proc.Owe): the value is already bound, so
// the caller's next sleep — normally the CPU's compute gap — takes the
// charge in the same coroutine switch. Load, Store, the atomics and IFetch
// take any owed sleep on entry, so back-to-back calls keep their
// plain-sleep timing.
package coherence

import (
	"fmt"

	"senss/internal/bus"
	"senss/internal/cache"
	"senss/internal/mem"
	"senss/internal/sim"
)

// Params configures a node's cache hierarchy and hit latencies.
type Params struct {
	L1Size int
	L1Ways int
	L1Line int

	L2Size int
	L2Ways int
	L2Line int

	L1HitLat uint64 // cycles for an L1 hit (loads and instruction fetches)
	L2HitLat uint64 // additional cycles for an L2 hit
	StoreLat uint64 // cycles for a store absorbed by the write buffer
	RMWLat   uint64 // additional cycles for the atomic in an RMW
}

// MissHooks lets the protection layers (memsec pads, CHash integrity)
// interpose on the memory-side events of a node. Hooks may issue their own
// bus transactions and recursive node accesses; they run while the node
// does NOT hold the bus.
type MissHooks interface {
	// AfterMemoryFill runs after a Rd/RdX was supplied by memory (the line
	// is already inserted, but the requesting operation has not returned):
	// pad-coherence requests and integrity verification happen here.
	AfterMemoryFill(p *sim.Proc, n *Node, t *bus.Transaction)
	// AfterWriteBack runs after a dirty line's WB transaction: pad
	// invalidation broadcast and hash-tree update happen here.
	AfterWriteBack(p *sim.Proc, n *Node, addr uint64, data []byte)
}

// NodeStats counts the node's memory operations.
type NodeStats struct {
	Loads     uint64
	Stores    uint64
	RMWs      uint64
	IFetches  uint64
	UpgrRaces uint64 // planned Upgr converted to RdX after losing the line
}

// Node is one processor's cache hierarchy and coherence controller.
type Node struct {
	ID  int
	GID int // SENSS group tag placed on every bus message

	L1I *cache.Cache
	L1D *cache.Cache
	L2  *cache.Cache

	Bus    *bus.Bus
	Params Params
	Hooks  MissHooks // nil when no protection layers are configured

	Stats NodeStats

	// FaultSkipInvalidate plants the deliberate coherence bug used to
	// validate the differential oracle: this node ignores the invalidation
	// side of snooped RdX/Upgr transactions, so a stale copy survives
	// another processor's write. The timed simulator runs on happily (the
	// stale line serves hits locally); only a cross-cache reference check
	// at the writing transaction can see it. Test-only.
	FaultSkipInvalidate bool

	// fillDepth guards against pathological eviction recursion through
	// protection-layer hook accesses.
	fillDepth int

	// fillStates holds one reusable miss-transaction record per fill
	// depth — header, payload buffer, victim record, writeback header, and
	// pre-bound bus callbacks — so the steady state rides the bus with no
	// per-miss allocation at all (hotpath discipline, DESIGN.md §13).
	// Indexing by depth keeps a recursive protection-layer fill (hook
	// accesses inside postFill) from clobbering the outer fill's in-flight
	// state; one extra slot covers the hook running at fillDepth ==
	// maxFillDepth before the recursion guard fires.
	fillStates [maxFillDepth + 1]*fillState

	// l1Victim receives tag-only L1 eviction records, which the node
	// discards (inclusion handles their state via the L2).
	l1Victim cache.Victim

	// sigTxn is the reusable header for address-only protection-layer
	// transactions (Signal). Safe as a single record per node: Signal
	// never nests within itself — nothing snooping or servicing a pad
	// message issues another one on the same node.
	sigTxn bus.Transaction
}

// fillOp selects the commit action a fillState performs at the coherence
// point — the data-driven replacement for per-miss commit closures, which
// Go would heap-allocate on every miss.
type fillOp uint8

const (
	opLoad    fillOp = iota // bind the word, install the L1D subline
	opIFetch                // install the L1I subline
	opStore                 // store val into the owned line
	opAdd                   // bind the old word, store old+val
	opCAS                   // bind the old word, store val if old == cmp
	opCopyOut               // copy the whole line into buf (LoadLine)
	opCopyIn                // copy buf into the line at off (StoreBlock)
)

// fillState is the pooled per-depth state of one miss or upgrade: the bus
// transaction header with its callbacks bound once, the reusable line
// payload, the victim record, and the operation to commit at the
// coherence point.
type fillState struct {
	n    *Node
	t    bus.Transaction
	wb   bus.Transaction // Committed writeback header for the victim
	data []byte          // reusable fill payload

	victim    cache.Victim
	hasVictim bool // victim holds a dirty line needing a timing WB

	// The pending commit action and its operands.
	op   fillOp
	addr uint64 // word (or block) address of the operation
	val  uint64 // opStore word, opAdd delta, opCAS replacement
	cmp  uint64 // opCAS expected word
	buf  []byte // opCopyOut dst / opCopyIn src
	off  uint64 // opCopyIn line offset
	res  uint64 // opLoad result, or the old word of an atomic
}

// preSnoop revalidates an Upgr after arbitration: a queued RdX may have
// stolen the Shared copy, degrading the upgrade to a full RdX fill.
//
// senss-lint:hotpath
func (fs *fillState) preSnoop(t *bus.Transaction) {
	if t.Kind != bus.Upgr {
		return
	}
	if fs.n.L2.Peek(fs.addr) == nil {
		fs.n.Stats.UpgrRaces++
		t.Kind = bus.RdX
		t.Data = fs.data
	}
}

// onData commits the cache-state change at the coherence point.
//
// senss-lint:hotpath
func (fs *fillState) onData(t *bus.Transaction) {
	if t.Kind == bus.Upgr {
		cur := fs.n.L2.Peek(fs.addr)
		if cur == nil {
			panic("coherence: line vanished between grant and commit")
		}
		cur.State = cache.Modified
		fs.commit(cur)
		return
	}
	fs.n.commitFill(fs)
}

// commit performs the pending operation against the line now owned at the
// coherence point.
//
// senss-lint:hotpath
func (fs *fillState) commit(l2 *cache.Line) {
	n := fs.n
	switch fs.op {
	case opLoad:
		fs.res = n.wordOf(l2, fs.addr)
		n.L1D.InsertVictim(fs.addr, cache.Shared, &n.l1Victim)
	case opIFetch:
		n.L1I.InsertVictim(fs.addr, cache.Shared, &n.l1Victim)
	case opStore:
		n.setWord(l2, fs.addr, fs.val)
	case opAdd, opCAS:
		fs.res = n.wordOf(l2, fs.addr)
		n.setWord(l2, fs.addr, atomicWord(fs.op, fs.res, fs.val, fs.cmp))
	case opCopyOut:
		copy(fs.buf, l2.Data)
	case opCopyIn:
		copy(l2.Data[fs.off:], fs.buf)
	}
}

// NewNode builds a node and attaches it to b as a snooper.
func NewNode(id int, params Params, b *bus.Bus) *Node {
	n := &Node{
		ID:     id,
		L1I:    cache.New(params.L1Size, params.L1Ways, params.L1Line, false),
		L1D:    cache.New(params.L1Size, params.L1Ways, params.L1Line, false),
		L2:     cache.New(params.L2Size, params.L2Ways, params.L2Line, true),
		Bus:    b,
		Params: params,
	}
	b.AttachSnooper(n)
	return n
}

// senss-lint:hotpath
func (n *Node) wordOf(l *cache.Line, addr uint64) uint64 {
	return mem.ReadWordFromLine(l.Data, addr%uint64(n.Params.L2Line))
}

// senss-lint:hotpath
func (n *Node) setWord(l *cache.Line, addr uint64, v uint64) {
	mem.WriteWordToLine(l.Data, addr%uint64(n.Params.L2Line), v)
}

// fillState returns the reusable miss state for the current fill depth,
// building it (payload buffer, bound callbacks) on first touch.
//
// senss-lint:hotpath
func (n *Node) fillState() *fillState {
	fs := n.fillStates[n.fillDepth]
	if fs == nil {
		//senss-lint:ignore hotpath first-touch growth: one fill state per depth, reused for the whole run
		fs = &fillState{n: n}
		//senss-lint:ignore hotpath first-touch growth: one payload per depth, reused for the whole run
		fs.data = make([]byte, n.Params.L2Line)
		// Method values bound once here; the steady state reuses them.
		//senss-lint:ignore hotpath first-touch growth: callbacks bound once per depth, reused for the whole run
		fs.t.PreSnoop = fs.preSnoop
		//senss-lint:ignore hotpath first-touch growth: callbacks bound once per depth, reused for the whole run
		fs.t.OnData = fs.onData
		n.fillStates[n.fillDepth] = fs
	}
	return fs
}

// Signal issues an address-only protection-layer transaction (PadReq,
// PadInv, PadUpd) on the node's behalf, reusing one transaction record.
//
// senss-lint:hotpath
func (n *Node) Signal(p *sim.Proc, kind bus.Kind, addr uint64) {
	n.sigTxn = bus.Transaction{Kind: kind, Addr: addr, Src: n.ID, GID: n.GID}
	n.Bus.Transact(p, &n.sigTxn)
}

// invalidateL1 drops every L1 subline of the L2 line at la (inclusion).
// The L1s are tag-only, so Drop (no payload copy) is exact.
//
// senss-lint:hotpath
func (n *Node) invalidateL1(la uint64) {
	for off := 0; off < n.Params.L2Line; off += n.Params.L1Line {
		n.L1I.Drop(la + uint64(off))
		n.L1D.Drop(la + uint64(off))
	}
}

// fetchL1 counts an instruction fetch of addr and probes the L1I,
// reporting a hit.
//
// senss-lint:hotpath
func (n *Node) fetchL1(addr uint64) bool {
	n.Stats.IFetches++
	return n.L1I.Lookup(addr) != nil
}

// loadL1 counts a load of addr and probes the L1D; on a hit it returns
// the word, bound at the coherence point.
//
// senss-lint:hotpath
func (n *Node) loadL1(addr uint64) (uint64, bool) {
	n.Stats.Loads++
	if n.L1D.Lookup(addr) == nil {
		return 0, false
	}
	return n.hitWord(addr), true
}

// hitWord reads the word at addr behind an L1D hit from the L2 copy that
// inclusion guarantees.
//
// senss-lint:hotpath
func (n *Node) hitWord(addr uint64) uint64 {
	l2 := n.L2.Peek(addr)
	if l2 == nil {
		panic(fmt.Sprintf("coherence: inclusion violated at %#x on node %d", addr, n.ID))
	}
	return n.wordOf(l2, addr)
}

// PeekHit reports, touching nothing, whether an instruction fetch of
// code (only when fetch is set) followed by a Load of addr would both hit
// in L1, and the word that Load would return.
//
// senss-lint:hotpath
func (n *Node) PeekHit(code uint64, fetch bool, addr uint64) (uint64, bool) {
	if fetch && n.L1I.Peek(code) == nil {
		return 0, false
	}
	if n.L1D.Peek(addr) == nil {
		return 0, false
	}
	return n.hitWord(addr), true
}

// TakeHit performs, at the event where PeekHit just reported them, the
// L1 hits of that fetch and Load with the very bookkeeping IFetch and
// Load do — counters, LRU and hit statistics — and charges no latency:
// the caller owes the Load's L1HitLat. It lets a wake continuation
// (sim.Proc.SettleThen) retire a cached load without resuming the proc.
//
// senss-lint:hotpath
func (n *Node) TakeHit(code uint64, fetch bool, addr uint64) {
	if fetch {
		n.fetchL1(code)
	}
	n.loadL1(addr)
}

// Load performs a data load of the aligned word at addr.
//
// senss-lint:hotpath
func (n *Node) Load(p *sim.Proc, addr uint64) uint64 {
	p.Settle()
	if v, hit := n.loadL1(addr); hit {
		p.Owe(n.Params.L1HitLat)
		return v
	}
	if l2 := n.L2.Lookup(addr); l2 != nil {
		v := n.wordOf(l2, addr)
		n.L1D.InsertVictim(addr, cache.Shared, &n.l1Victim)
		p.Owe(n.Params.L1HitLat + n.Params.L2HitLat)
		return v
	}
	fs := n.fillState()
	fs.op, fs.addr = opLoad, addr
	n.fill(p, addr, bus.Rd, fs)
	p.Owe(n.Params.L1HitLat + n.Params.L2HitLat) // probes preceding the miss
	return fs.res
}

// IFetch models an instruction fetch at addr. L1I hits are free (overlapped
// with execution); misses go through the normal hierarchy.
//
// senss-lint:hotpath
func (n *Node) IFetch(p *sim.Proc, addr uint64) {
	p.Settle()
	if n.fetchL1(addr) {
		return
	}
	if l2 := n.L2.Lookup(addr); l2 != nil {
		n.L1I.InsertVictim(addr, cache.Shared, &n.l1Victim)
		p.Sleep(n.Params.L2HitLat)
		return
	}
	fs := n.fillState()
	fs.op, fs.addr = opIFetch, addr
	n.fill(p, addr, bus.Rd, fs)
	p.Sleep(n.Params.L2HitLat)
}

// Store performs a data store of the aligned word at addr.
//
// senss-lint:hotpath
func (n *Node) Store(p *sim.Proc, addr uint64, val uint64) {
	p.Settle()
	n.Stats.Stores++
	l2, owned := n.storeLookup(addr)
	if owned {
		n.setWord(l2, addr, val)
	} else {
		fs := n.fillState()
		fs.op, fs.addr, fs.val = opStore, addr, val
		n.acquireModified(p, addr, l2, fs)
	}
	p.Owe(n.Params.StoreLat)
}

// Add atomically adds delta to the word at addr, returning the old value.
//
// senss-lint:hotpath
func (n *Node) Add(p *sim.Proc, addr, delta uint64) uint64 {
	return n.rmw(p, addr, opAdd, delta, 0)
}

// CAS atomically stores new at addr if the word there equals old, and
// returns the word it found (equal to old exactly when the swap happened).
//
// senss-lint:hotpath
func (n *Node) CAS(p *sim.Proc, addr, old, new uint64) uint64 {
	return n.rmw(p, addr, opCAS, new, old)
}

// rmw performs the atomic op with operands val and cmp (see atomicWord)
// and returns the old word. The write commits at the coherence point with
// the line in M, so it is atomic with respect to every other node.
//
// senss-lint:hotpath
func (n *Node) rmw(p *sim.Proc, addr uint64, op fillOp, val, cmp uint64) uint64 {
	p.Settle()
	n.Stats.RMWs++
	l2, owned := n.storeLookup(addr)
	if owned {
		old := n.wordOf(l2, addr)
		n.setWord(l2, addr, atomicWord(op, old, val, cmp))
		p.Owe(n.Params.StoreLat + n.Params.RMWLat)
		return old
	}
	fs := n.fillState()
	fs.op, fs.addr, fs.val, fs.cmp = op, addr, val, cmp
	n.acquireModified(p, addr, l2, fs)
	p.Owe(n.Params.StoreLat + n.Params.RMWLat)
	return fs.res
}

// atomicWord is the word an atomic leaves at its address: old+val for
// opAdd; for opCAS, val when old equals cmp and old otherwise.
//
// senss-lint:hotpath
func atomicWord(op fillOp, old, val, cmp uint64) uint64 {
	if op == opAdd {
		return old + val
	}
	if old == cmp {
		return val
	}
	return old
}

// storeLookup probes the L2 for write ownership, promoting E to M in
// place (silent upgrade). It returns (line, true) when the caller may
// commit directly, (line, false) for a Shared/Owned copy that needs a
// bus upgrade, and (nil, false) on a miss.
//
// senss-lint:hotpath
func (n *Node) storeLookup(addr uint64) (*cache.Line, bool) {
	l2 := n.L2.Lookup(addr)
	if l2 == nil {
		return nil, false
	}
	switch l2.State {
	case cache.Modified:
		return l2, true
	case cache.Exclusive:
		l2.State = cache.Modified
		return l2, true
	case cache.Shared, cache.Owned:
		return l2, false
	default:
		panic("coherence: invalid state in storeLookup")
	}
}

// acquireModified obtains addr's line in Modified state the slow way —
// a full RdX fill on a miss, a BusUpgr for the Shared/Owned copy l2 —
// and commits fs's pending operation at the coherence point.
//
// senss-lint:hotpath
func (n *Node) acquireModified(p *sim.Proc, addr uint64, l2 *cache.Line, fs *fillState) {
	if l2 == nil {
		n.fill(p, addr, bus.RdX, fs)
		p.Sleep(n.Params.L1HitLat + n.Params.L2HitLat)
		return
	}
	n.upgrade(p, addr, fs)
}

// upgrade converts a Shared/Owned copy to Modified with a BusUpgr,
// degrading to a full RdX (fs.preSnoop) if the copy is lost while waiting
// for the bus.
//
// senss-lint:hotpath
func (n *Node) upgrade(p *sim.Proc, addr uint64, fs *fillState) {
	fs.t.Kind = bus.Upgr
	fs.t.Addr = n.L2.LineAddr(addr)
	fs.t.Src, fs.t.GID = n.ID, n.GID
	fs.t.Data = nil
	fs.t.Committed = false
	fs.hasVictim = false
	n.Bus.Transact(p, &fs.t)
	n.postFill(p, fs)
}

// fill acquires the line containing addr with a Rd or RdX, committing the
// insertion and fs's pending operation atomically at the bus grant. The
// payload rides in the state's reusable buffer; commitFill copies it into
// the L2 frame before the transaction returns.
//
// senss-lint:hotpath
func (n *Node) fill(p *sim.Proc, addr uint64, kind bus.Kind, fs *fillState) {
	fs.t.Kind = kind
	fs.t.Addr = n.L2.LineAddr(addr)
	fs.t.Src, fs.t.GID = n.ID, n.GID
	fs.t.Data = fs.data
	fs.t.Committed = false
	fs.hasVictim = false
	n.Bus.Transact(p, &fs.t)
	n.postFill(p, fs)
}

// maxFillDepth bounds eviction recursion through protection-layer hooks.
const maxFillDepth = 24

// commitFill inserts the fetched line (state per MOESI), commits fs's
// pending operation, and commits any dirty victim's bytes to memory. It
// runs at the coherence point (bus held).
//
// senss-lint:hotpath
func (n *Node) commitFill(fs *fillState) {
	t := &fs.t
	state := cache.Modified
	if t.Kind == bus.Rd {
		if t.Shared {
			state = cache.Shared
		} else {
			state = cache.Exclusive
		}
	}
	l2, evicted := n.L2.InsertVictim(t.Addr, state, &fs.victim)
	copy(l2.Data, t.Data)
	if evicted {
		n.invalidateL1(fs.victim.Addr)
		if fs.victim.State.Dirty() {
			n.Bus.CommitStore(n.ID, n.GID, fs.victim.Addr, fs.victim.Data)
			fs.hasVictim = true
		}
	}
	fs.commit(l2)
}

// postFill runs the protection hooks and the victim's timing writeback
// after the fill transaction completed (bus released).
//
// senss-lint:hotpath
func (n *Node) postFill(p *sim.Proc, fs *fillState) {
	if n.fillDepth >= maxFillDepth {
		panic("coherence: fill recursion too deep (protection-layer loop?)")
	}
	// Balanced explicitly at the end rather than by a deferred closure:
	// postFill has no early returns, and a per-call defer has no place on
	// the miss path.
	n.fillDepth++

	t := &fs.t
	if t.SupplierID == bus.MemorySupplier && (t.Kind == bus.Rd || t.Kind == bus.RdX) && n.Hooks != nil {
		//senss-lint:ignore hotpath hook fan-out reaches config-dependent protection rigs; the production layers are hot-annotated where it counts
		n.Hooks.AfterMemoryFill(p, n, t)
	}
	if fs.hasVictim {
		fs.wb = bus.Transaction{
			Kind: bus.WB, Addr: fs.victim.Addr, Src: n.ID, GID: n.GID,
			Data: fs.victim.Data, Committed: true,
		}
		n.Bus.Transact(p, &fs.wb)
		if n.Hooks != nil {
			//senss-lint:ignore hotpath hook fan-out reaches config-dependent protection rigs; the production layers are hot-annotated where it counts
			n.Hooks.AfterWriteBack(p, n, fs.victim.Addr, fs.victim.Data)
		}
	}
	n.fillDepth--
}

// SnoopBus implements bus.Snooper: the MOESI snoop side.
//
// senss-lint:hotpath
func (n *Node) SnoopBus(t *bus.Transaction) {
	if t.Src == n.ID {
		return
	}
	switch t.Kind {
	case bus.Rd:
		l2 := n.L2.Peek(t.Addr)
		if l2 == nil {
			return
		}
		t.Shared = true
		switch l2.State {
		case cache.Modified:
			l2.State = cache.Owned
			n.supply(t, l2)
		case cache.Owned:
			n.supply(t, l2)
		case cache.Exclusive:
			l2.State = cache.Shared
			n.supply(t, l2)
		case cache.Shared:
			// Clean shared copy: memory is current (no M/O exists or it
			// would supply) and provides the data.
		}
	case bus.RdX:
		l2 := n.L2.Peek(t.Addr)
		if l2 == nil {
			return
		}
		if l2.State != cache.Shared {
			n.supply(t, l2)
		}
		if n.FaultSkipInvalidate {
			return
		}
		// Drop, not Invalidate: the requester now owns the only live copy
		// (supplied above when we held it dirty), so the local payload is
		// dead and the defensive copy would be thrown away.
		n.L2.Drop(t.Addr)
		n.invalidateL1(t.Addr)
	case bus.Upgr:
		if n.L2.Peek(t.Addr) == nil {
			return
		}
		if n.FaultSkipInvalidate {
			return
		}
		// The upgrader holds valid data; every other copy dies. Drop
		// discards the local payload without the defensive copy.
		n.L2.Drop(t.Addr)
		n.invalidateL1(t.Addr)
	case bus.WB, bus.Auth, bus.PadInv, bus.PadReq, bus.PadUpd:
		// No cache-state effect; the SENSS and memsec layers observe these
		// through their own hooks.
	}
}

// supply copies the snooped line into the transaction as a cache-to-cache
// transfer. With MOESI at most one M/O/E holder exists, so there is never
// a second supplier.
//
// senss-lint:hotpath
func (n *Node) supply(t *bus.Transaction, l *cache.Line) {
	if t.SupplierID != bus.MemorySupplier {
		panic(fmt.Sprintf("coherence: two suppliers for %#x", t.Addr))
	}
	copy(t.Data, l.Data)
	t.SupplierID = n.ID
}

// LoadLine reads a whole-line copy through the L2 (bypassing L1 — used by
// the integrity layer for hash-tree nodes, which the paper keeps in L2).
//
// senss-lint:hotpath
func (n *Node) LoadLine(p *sim.Proc, addr uint64) []byte {
	la := n.L2.LineAddr(addr)
	//senss-lint:ignore hotpath the returned line copy crosses the API boundary; the integrity layer owns it
	out := make([]byte, n.Params.L2Line)
	if l2 := n.L2.Lookup(la); l2 != nil {
		copy(out, l2.Data)
		p.Sleep(n.Params.L2HitLat)
		return out
	}
	fs := n.fillState()
	fs.op, fs.addr, fs.buf = opCopyOut, la, out
	n.fill(p, la, bus.Rd, fs)
	fs.buf = nil // drop the caller's buffer for the GC
	p.Sleep(n.Params.L2HitLat)
	return out
}

// StoreBlock writes len(data) bytes at addr (contained in one line) under a
// single ownership acquisition — used by the integrity layer to patch a
// child's hash tag inside its parent tree node.
//
// senss-lint:hotpath
func (n *Node) StoreBlock(p *sim.Proc, addr uint64, data []byte) {
	off := addr % uint64(n.Params.L2Line)
	if int(off)+len(data) > n.Params.L2Line {
		panic("coherence: StoreBlock crosses a line boundary")
	}
	n.Stats.Stores++
	l2, owned := n.storeLookup(addr)
	if owned {
		copy(l2.Data[off:], data)
	} else {
		fs := n.fillState()
		fs.op, fs.addr, fs.off, fs.buf = opCopyIn, addr, off, data
		n.acquireModified(p, addr, l2, fs)
		fs.buf = nil // drop the caller's buffer for the GC
	}
	p.Sleep(n.Params.StoreLat)
}

// PeekWord reads the word at addr from this node's L2 without timing, for
// validation and invariant checks. ok is false when the node holds no copy.
func (n *Node) PeekWord(addr uint64) (v uint64, ok bool) {
	l2 := n.L2.Peek(addr)
	if l2 == nil {
		return 0, false
	}
	return n.wordOf(l2, addr), true
}
