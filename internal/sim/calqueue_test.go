package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refHeap is the reference scheduler: a plain binary min-heap ordered by
// (cycle, insertion sequence). The equivalence tests below run it and the
// wheel-plus-heap queue in lockstep on fuzzed schedules and demand
// identical peek and pop behavior — the queue earns its place only by
// being indistinguishable.
type refHeap []event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return eventLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

func (h *refHeap) peekAt() (uint64, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	return (*h)[0].at, true
}

func (h *refHeap) pop() event { return heap.Pop(h).(event) }

// popBoth pops the next event from the queue and the reference heap and
// fails the test on any disagreement in peek, pop, or length.
func popBoth(t *testing.T, q *calQueue, ref *refHeap) event {
	t.Helper()
	at, ok := q.peekAt()
	wat, wok := ref.peekAt()
	if ok != wok || at != wat {
		t.Fatalf("peekAt = (%d, %v), reference heap says (%d, %v)", at, ok, wat, wok)
	}
	got := q.popAt(at)
	want := ref.pop()
	if got.at != want.at || got.seq != want.seq {
		t.Fatalf("popped (at=%d seq=%d), reference heap popped (at=%d seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
	if q.len() != ref.Len() {
		t.Fatalf("after pop: len=%d, reference heap len=%d", q.len(), ref.Len())
	}
	return got
}

// TestCalQueueMatchesReferenceHeap is the lockstep scheduler-equivalence
// property test: fuzzed schedules mixing same-cycle bursts (some larger
// than a bucket holds, so they spill into the heap), hit-latency deltas,
// bus-scale deltas, and far-future events beyond the wheel window, with
// peeks and pops interleaved the way RunUntil deadline slicing
// interleaves them (peek, then push at earlier cycles than the peeked
// event, then peek again). The queue must agree with the reference heap
// on every observable at every step.
func TestCalQueueMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			var q calQueue
			var ref refHeap
			var seq uint64
			var now uint64 // cycle of the last popped event
			spills, far := 0, 0

			push := func(at uint64) {
				ev := event{at: at, seq: seq}
				seq++
				if at >= q.start+wheelBuckets {
					far++
				} else if q.buckets[at&wheelMask].n == bucketCap {
					spills++
				}
				q.push(ev)
				heap.Push(&ref, ev)
				if q.len() != ref.Len() {
					t.Fatalf("after push: len=%d, reference heap len=%d", q.len(), ref.Len())
				}
			}

			for step := 0; step < 20000; step++ {
				if q.len() == 0 || (q.len() < 4096 && r.Intn(10) < 6) {
					var delta uint64
					switch r.Intn(13) {
					case 0: // same-cycle burst: the tie-break path
						delta = 0
					case 1, 2: // cache-hit latencies
						delta = uint64(r.Intn(8))
					case 3: // beyond the wheel window: the heap
						delta = wheelBuckets + uint64(r.Intn(4*wheelBuckets))
					case 4: // a burst past a bucket's capacity: the spill
						at := now + uint64(r.Intn(wheelBuckets))
						for i := bucketCap + r.Intn(2*bucketCap); i > 0; i-- {
							push(at)
						}
						continue
					default: // bus and memory round-trip scale
						delta = uint64(r.Intn(512))
					}
					push(now + delta)
					continue
				}
				if r.Intn(4) == 0 {
					// Deadline-slicing interleaving: peek (as RunUntil does
					// to compare against its deadline), then push an event
					// at an earlier cycle than the peeked one. The peek must
					// not have moved the window start past it.
					peeked, _ := q.peekAt()
					push(now)
					if got, _ := q.peekAt(); got > peeked || got > now {
						t.Fatalf("after peek(%d) then push(at=%d): peekAt=%d — peek moved the window", peeked, now, got)
					}
				}
				now = popBoth(t, &q, &ref).at
			}
			for q.len() > 0 {
				popBoth(t, &q, &ref)
			}
			if far == 0 || spills == 0 {
				t.Fatalf("schedule pushed %d events beyond the window and %d past a full bucket; both heap paths must run", far, spills)
			}
		})
	}
}

// TestCalQueueMetamorphicSameCycleOrder pins the tie-break contract:
// events at the same cycle retire in insertion order (FIFO), and only
// insertion order — for every permutation of same-cycle pushes, the pop
// sequence is exactly (cycle, insertion sequence) order and identical to
// the reference heap's. The cycle-level retirement timeline is invariant
// across permutations. This is the contract that lets the golden-cycles
// conformance suite hold: the engine always presents insertions in the
// same deterministic order, and the queue never reorders within a cycle.
func TestCalQueueMetamorphicSameCycleOrder(t *testing.T) {
	// Clusters of same-cycle events, including groups beyond the wheel
	// window and one larger than a bucket, so tie groups live in the heap
	// and straddle the wheel and the heap.
	cycles := []uint64{3, 3, 3, 3, 17, 17, 40, 40, 40, 40, 40, 40, 40, 700, 700, 5000, 5000, 5000}

	var wantCycles []uint64 // sorted retirement timeline, fixed across permutations

	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		// Permute insertion order within each equal-cycle group; group
		// positions stay put so cross-cycle insertion order is unchanged.
		order := make([]int, len(cycles))
		for i := range order {
			order[i] = i
		}
		for lo := 0; lo < len(cycles); {
			hi := lo
			for hi < len(cycles) && cycles[hi] == cycles[lo] {
				hi++
			}
			r.Shuffle(hi-lo, func(i, j int) { order[lo+i], order[lo+j] = order[lo+j], order[lo+i] })
			lo = hi
		}

		var q calQueue
		var ref refHeap
		insertionAt := make([]uint64, len(cycles)) // seq -> cycle pushed
		for seq, idx := range order {
			ev := event{at: cycles[idx], seq: uint64(seq)}
			insertionAt[seq] = ev.at
			q.push(ev)
			heap.Push(&ref, ev)
		}

		var gotCycles []uint64
		nextSeqAt := make(map[uint64]uint64) // cycle -> next expected seq rank within that cycle's insertions
		for q.len() > 0 {
			ev := popBoth(t, &q, &ref)
			gotCycles = append(gotCycles, ev.at)
			// FIFO within the cycle: this event's seq must be the lowest
			// not-yet-retired seq among this cycle's insertions.
			for s := nextSeqAt[ev.at]; ; s++ {
				if insertionAt[s] == ev.at {
					if s != ev.seq {
						t.Fatalf("trial %d: cycle %d retired seq %d before seq %d — tie-break is not FIFO",
							trial, ev.at, ev.seq, s)
					}
					nextSeqAt[ev.at] = s + 1
					break
				}
			}
		}

		if wantCycles == nil {
			wantCycles = gotCycles
			continue
		}
		if len(gotCycles) != len(wantCycles) {
			t.Fatalf("trial %d: retired %d events, want %d", trial, len(gotCycles), len(wantCycles))
		}
		for i := range gotCycles {
			if gotCycles[i] != wantCycles[i] {
				t.Fatalf("trial %d: retirement timeline changed at position %d: cycle %d, want %d — "+
					"same-cycle insertion order leaked across cycles", trial, i, gotCycles[i], wantCycles[i])
			}
		}
	}
}

// TestCalQueueOverflowBoundaryFIFO pins FIFO across the heap/wheel
// boundary: events for one far-future cycle pushed while it lay beyond
// the window (into the heap) and after the window reached it (directly
// into the wheel) must still retire in global insertion order, because
// popAt compares the heap's top with the wheel's head by sequence.
func TestCalQueueOverflowBoundaryFIFO(t *testing.T) {
	var q calQueue
	var seq uint64
	push := func(at uint64) uint64 {
		ev := event{at: at, seq: seq}
		seq++
		q.push(ev)
		return ev.seq
	}

	const far = 3 * wheelBuckets
	// Three far-future events land in the heap, deliberately pushed out
	// of cycle order to make the heap do real sorting work.
	push(far + 1)
	push(far)
	push(far)
	// A near event keeps the wheel busy.
	push(5)

	if got := q.popAt(5); got.at != 5 {
		t.Fatalf("first pop at=%d, want 5", got.at)
	}
	// The wheel is now empty; the next pop comes from the heap and moves
	// the window start to `far`.
	at, ok := q.peekAt()
	if !ok || at != far {
		t.Fatalf("peek after wheel drained = (%d, %v), want (%d, true)", at, ok, far)
	}
	if got := q.popAt(at); got.seq != 1 {
		t.Fatalf("first pop from the heap seq=%d, want 1", got.seq)
	}
	// The window now starts at `far`, so pushes for the heap's cycles go
	// directly into the wheel: newer seq, same cycle, other tier.
	push(far)
	push(far + 1)

	wantSeqs := []uint64{2, 4, 0, 5} // at=far: seq 2 then 4; at=far+1: seq 0 then 5
	for i, want := range wantSeqs {
		at, ok := q.peekAt()
		if !ok {
			t.Fatalf("queue empty after %d pops, want %d more", i, len(wantSeqs)-i)
		}
		got := q.popAt(at)
		if got.seq != want {
			t.Fatalf("pop %d: (at=%d seq=%d), want seq %d — FIFO broke across the heap/wheel boundary",
				i, got.at, got.seq, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("%d events left over", q.len())
	}
}

// TestRunUntilRandomSlicesMatchRun re-runs the bit-reproducibility
// contract under adversarial slicing: random deadline sizes, including
// long stretches of 1-cycle slices that peek the queue at every cycle —
// the access pattern that punishes a scheduler whose peek disturbs
// window state. Every slicing must retire the identical trace at the
// identical cycles as the unsliced run, including sleeps past the wheel
// window that go through the heap.
func TestRunUntilRandomSlicesMatchRun(t *testing.T) {
	build := func() (*Engine, *[]string) {
		e := NewEngine()
		var trace []string
		rec := func(name string, step uint64, n int) {
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < n; i++ {
					trace = append(trace, name)
					p.Sleep(step)
				}
			})
		}
		rec("a", 2, 40)
		rec("b", 7, 25)
		rec("c", 1500, 4) // every sleep lies beyond the wheel window
		rec("d", wheelBuckets, 5)
		return e, &trace
	}

	whole, wholeTrace := build()
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		e, trace := build()
		for steps := 0; ; steps++ {
			var slice uint64
			if r.Intn(3) == 0 {
				slice = 1
			} else {
				slice = 1 + uint64(r.Intn(400))
			}
			done, err := e.RunUntil(e.Now() + slice)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			if steps > 100000 {
				t.Fatal("sliced run never finished")
			}
		}
		if e.Now() != whole.Now() {
			t.Errorf("seed %d: final cycle %d, want %d", seed, e.Now(), whole.Now())
		}
		if len(*trace) != len(*wholeTrace) {
			t.Fatalf("seed %d: trace length %d, want %d", seed, len(*trace), len(*wholeTrace))
		}
		for i := range *trace {
			if (*trace)[i] != (*wholeTrace)[i] {
				t.Fatalf("seed %d: trace differs at %d: %q, want %q", seed, i, (*trace)[i], (*wholeTrace)[i])
			}
		}
	}
}
