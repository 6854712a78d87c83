package sim

import "math/bits"

// This file is the engine's event scheduler: a small time wheel in front
// of a binary min-heap, sized for the simulator's traffic. The queue never
// holds more than about one event per proc, nearly all of them a few
// cycles ahead (OpGap, cache hit latencies), so a wheel of wheelBuckets
// one-cycle buckets, each a fixed inline FIFO of bucketCap events, takes
// the hot path with no allocation and no comparison sorting. An event
// beyond the window, or one that finds its bucket full, goes to the heap.
//
// The ordering contract is the binary heap's: events pop in (cycle,
// insertion sequence) order, so same-cycle events are FIFO. It holds by
// construction. Every wheel event lies in [start, start+wheelBuckets), so
// a bucket only ever holds one cycle, and within it events sit in
// insertion order, which is sequence order. The wheel's head — the front
// of the first occupied bucket — is therefore the wheel's least event,
// the heap's top is the heap's, and popAt takes the lesser of the two.
// Nothing is ever moved between the tiers: no rotation and no drain.
// The scheduler-equivalence and metamorphic tests in calqueue_test.go pin
// the contract against a reference heap.

const (
	// wheelBuckets is the wheel window in cycles: one bucket per cycle,
	// one bit per bucket in the occupancy word.
	wheelBuckets = 64
	wheelMask    = wheelBuckets - 1
	// bucketCap is how many events one bucket holds inline. The golden
	// cells never queue more than one event per proc, four in all.
	bucketCap = 4
)

// event is a scheduled occurrence: either an engine-context callback or the
// resumption of a parked proc. Events are values — the queue stores them
// inline, so the steady state moves no pointers and allocates nothing.
type event struct {
	at  uint64
	seq uint64
	fn  func()
	p   *Proc
}

// bucket is a fixed FIFO ring of the events of one cycle.
type bucket struct {
	evs     [bucketCap]event
	head, n uint8
}

// calQueue is the event queue. The zero value is an empty queue with the
// window starting at cycle 0.
type calQueue struct {
	// start is the window start: the wheel covers cycles
	// [start, start+wheelBuckets), bucket index = cycle & wheelMask.
	// Only popAt and advance move it, each to a cycle no queued event
	// precedes; every later push is at or after it, because simulated
	// time never runs backwards. Peek never moves it: a peek that stops
	// a run slice may be followed by pushes at earlier cycles than the
	// peeked event.
	start   uint64
	n       int    // total events (wheel + heap)
	occ     uint64 // bit i set: bucket i is nonempty
	buckets [wheelBuckets]bucket
	// heap is a binary min-heap ordered by (at, seq) holding the events
	// beyond the window or past a full bucket.
	heap []event
}

// len returns the number of scheduled events.
//
// senss-lint:hotpath
func (q *calQueue) len() int { return q.n }

// push schedules ev. ev.at must be >= the cycle of the last popped event
// (time never runs backwards), and ev.seq above every queued event's.
//
// senss-lint:hotpath
func (q *calQueue) push(ev event) {
	q.n++
	if ev.at-q.start < wheelBuckets {
		i := ev.at & wheelMask
		b := &q.buckets[i]
		if b.n < bucketCap {
			b.evs[(b.head+b.n)%bucketCap] = ev
			b.n++
			q.occ |= 1 << i
			return
		}
	}
	q.heapPush(ev)
}

// window returns the occupancy word rotated so that bit i stands for
// cycle start+i.
//
// senss-lint:hotpath
func (q *calQueue) window() uint64 {
	return bits.RotateLeft64(q.occ, -int(q.start&wheelMask))
}

// wheelAt returns the cycle of the wheel's first occupied bucket. The
// caller guarantees the wheel is nonempty.
//
// senss-lint:hotpath
func (q *calQueue) wheelAt() uint64 {
	return q.start + uint64(bits.TrailingZeros64(q.window()))
}

// peekAt returns the cycle of the next event without removing it, and
// whether one exists. It moves nothing.
//
// senss-lint:hotpath
func (q *calQueue) peekAt() (uint64, bool) {
	if q.occ != 0 {
		at := q.wheelAt()
		if len(q.heap) > 0 && q.heap[0].at < at {
			return q.heap[0].at, true
		}
		return at, true
	}
	if len(q.heap) > 0 {
		return q.heap[0].at, true
	}
	return 0, false
}

// popAt removes and returns the next event, whose cycle the caller obtained
// from peekAt with no intervening push (peek and pop run in one dispatch
// step of a single-threaded engine, so nothing can interleave). A bucket
// that is occupied at at's index holds cycle at: every wheel event lies
// in the window, at or after the least event's cycle.
//
// senss-lint:hotpath
func (q *calQueue) popAt(at uint64) event {
	q.start = at
	q.n--
	i := at & wheelMask
	if q.occ&(1<<i) != 0 {
		b := &q.buckets[i]
		if len(q.heap) == 0 || q.heap[0].at != at || b.evs[b.head].seq < q.heap[0].seq {
			ev := b.evs[b.head]
			b.evs[b.head] = event{} // drop fn/proc references for the GC
			b.head = (b.head + 1) % bucketCap
			b.n--
			if b.n == 0 {
				q.occ &^= 1 << i
			}
			return ev
		}
	}
	return q.heapPop()
}

// advance reports whether no queued event lies at or before cycle at,
// and if so moves the window start there, as popping an event at that
// cycle would: the caller is about to take such an event without
// queuing it.
//
// senss-lint:hotpath
func (q *calQueue) advance(at uint64) bool {
	if len(q.heap) > 0 && q.heap[0].at <= at {
		return false
	}
	// The mask covers cycles start..at; from at-start = 63 on it is every
	// bit, since Go shifts past the width to zero.
	if q.window()&(2<<(at-q.start)-1) != 0 {
		return false
	}
	q.start = at
	return true
}

// reset drops every scheduled event (Abort teardown).
func (q *calQueue) reset() {
	*q = calQueue{}
}

// eventLess orders the heap by (cycle, insertion sequence).
//
// senss-lint:hotpath
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush is a hand-rolled sift-up so events stay values (container/heap
// would box them through interface{}).
//
// senss-lint:hotpath
func (q *calQueue) heapPush(ev event) {
	//senss-lint:ignore hotpath amortized growth: the heap holds at most a few events per proc and reaches steady-state capacity after warmup
	h := append(q.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.heap = h
}

// heapPop removes and returns the heap's least event.
//
// senss-lint:hotpath
func (q *calQueue) heapPop() event {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{}
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && eventLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && eventLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	q.heap = h
	return top
}
