package sim

import "math/bits"

// This file is the engine's event scheduler: a calendar queue (time wheel)
// specialized for the simulator's traffic pattern. Nearly every event is
// scheduled a small number of cycles ahead (OpGap, cache hit latencies, the
// ~180-cycle memory round trip), so a wheel of per-cycle buckets covering the
// next wheelBuckets cycles absorbs the hot path with O(1) push and pop and no
// comparison sorting; the rare far-future event overflows into a small binary
// heap and is drained into the wheel when the window rotates past it.
//
// The ordering contract is identical to the binary heap it replaced: events
// pop in (cycle, insertion sequence) order, so same-cycle events are FIFO.
// Within a bucket that holds exactly because each bucket is append-only and
// consumed front to back; across the overflow boundary it holds because the
// window only rotates when the wheel is empty, and the drain inserts overflow
// events (all carrying older sequence numbers than any later direct push to
// the new window) in heap order, which is sequence order within a cycle.
// The scheduler-equivalence and metamorphic tests in calqueue_test.go pin
// both properties against the reference heap.

const (
	// wheelBuckets is the wheel window size in cycles. It must be a power
	// of two and comfortably exceed the largest common latency (MemLat +
	// crypto ≈ 300 cycles) so rotation — the only O(log n) path — stays
	// rare. 1024 buckets is 40 KiB of bucket headers per engine.
	wheelBuckets = 1 << 10
	wheelMask    = wheelBuckets - 1
)

// event is a scheduled occurrence: either an engine-context callback or the
// resumption of a parked proc. Events are values — the calendar queue stores
// them inline in its buckets, so the steady state moves no pointers and
// allocates nothing.
type event struct {
	at  uint64
	seq uint64
	fn  func()
	p   *Proc
}

// bucket holds the events of one cycle in insertion order. It is consumed
// front to back via head, and reset (retaining capacity) once drained.
type bucket struct {
	evs  []event
	head int
}

// calQueue is the calendar queue. The zero value is an empty queue with the
// window starting at cycle 0.
type calQueue struct {
	// base is the window start: the wheel covers cycles
	// [base, base+wheelBuckets), bucket index = cycle & wheelMask.
	base uint64
	// cur is the scan cursor: every bucket for a cycle below cur is empty.
	// Only pop advances it (to the popped cycle), which is safe because
	// all future pushes happen at or after the current simulated cycle.
	// Peek never moves it: a peek that stops a run slice may be followed
	// by pushes at earlier cycles than the peeked event.
	cur     uint64
	n       int // total events (wheel + overflow)
	inWheel int // events currently in wheel buckets
	occ     [wheelBuckets / 64]uint64
	buckets [wheelBuckets]bucket
	// overflow is a binary min-heap ordered by (at, seq) holding events
	// beyond the current window.
	overflow []event
}

// len returns the number of scheduled events.
//
//senss-lint:hotpath
func (q *calQueue) len() int { return q.n }

// push schedules ev. ev.at must be >= the cycle of the last popped event
// (time never runs backwards), which keeps every push inside or beyond the
// current window.
//
//senss-lint:hotpath
func (q *calQueue) push(ev event) {
	q.n++
	if ev.at < q.base+wheelBuckets {
		q.bucketPush(ev)
		return
	}
	q.overflowPush(ev)
}

//senss-lint:hotpath
func (q *calQueue) bucketPush(ev event) {
	i := ev.at & wheelMask
	b := &q.buckets[i]
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		q.occ[i>>6] |= 1 << (i & 63)
	}
	//senss-lint:ignore hotpath amortized growth: buckets reach steady-state capacity after warmup
	b.evs = append(b.evs, ev)
	q.inWheel++
}

// peekAt returns the cycle of the next event without removing it, and
// whether one exists. It never rotates the window and never moves cur.
//
//senss-lint:hotpath
func (q *calQueue) peekAt() (uint64, bool) {
	if q.inWheel > 0 {
		return q.scanFrom(q.cur), true
	}
	if len(q.overflow) > 0 {
		return q.overflow[0].at, true
	}
	return 0, false
}

// popAt removes and returns the next event, whose cycle the caller obtained
// from peekAt with no intervening push (peek and pop run in one dispatch
// step of a single-threaded engine, so nothing can interleave).
//
//senss-lint:hotpath
func (q *calQueue) popAt(at uint64) event {
	if q.inWheel == 0 {
		q.rotate()
	}
	i := at & wheelMask
	b := &q.buckets[i]
	ev := b.evs[b.head]
	b.evs[b.head] = event{} // drop fn/proc references for the GC
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		q.occ[i>>6] &^= 1 << (i & 63)
	}
	q.cur = at
	q.inWheel--
	q.n--
	return ev
}

// scanFrom returns the lowest cycle >= c with a nonempty bucket. The caller
// guarantees the wheel is nonempty; buckets below c are empty by the cur
// invariant, so any set occupancy bit at or after c names the next cycle.
//
//senss-lint:hotpath
func (q *calQueue) scanFrom(c uint64) uint64 {
	end := q.base + wheelBuckets
	for c < end {
		i := c & wheelMask
		w := q.occ[i>>6] >> (i & 63)
		if w != 0 {
			return c + uint64(bits.TrailingZeros64(w))
		}
		c += 64 - (i & 63)
	}
	panic("sim: calendar wheel lost an event (scan past window end)")
}

// rotate advances the window to the earliest overflow event and drains every
// overflow event that now fits. Only called when the wheel is empty, so no
// bucket can hold events of two different cycles.
//
//senss-lint:coldpath window rotation: only far-future events (beyond 1024 cycles) ever trigger it
func (q *calQueue) rotate() {
	q.base = q.overflow[0].at
	q.cur = q.base
	for len(q.overflow) > 0 && q.overflow[0].at < q.base+wheelBuckets {
		q.bucketPush(q.overflowPop())
	}
}

// reset drops every scheduled event (Abort teardown).
func (q *calQueue) reset() {
	*q = calQueue{}
}

// overflowLess orders the overflow heap by (cycle, insertion sequence).
func overflowLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// overflowPush is a hand-rolled sift-up so events stay values (container/heap
// would box them through interface{}).
//
//senss-lint:coldpath overflow heap: only far-future events (beyond 1024 cycles) land here
func (q *calQueue) overflowPush(ev event) {
	h := append(q.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.overflow = h
}

func (q *calQueue) overflowPop() event {
	h := q.overflow
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{}
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && overflowLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && overflowLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	q.overflow = h
	return top
}
