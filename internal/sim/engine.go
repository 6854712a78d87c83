//go:build go1.23

// Package sim is a deterministic discrete-event simulation engine with
// cooperative green threads ("procs").
//
// The SMP model is written in blocking style: each simulated processor runs
// its program inside a proc; memory-hierarchy layers charge simulated cycles
// by calling Sleep, and contention points (the bus arbiter, spinlocks) are
// expressed with wait queues.  Exactly one proc executes at a time — the
// next event in (cycle, sequence) order decides which — so the whole
// simulation is single-threaded in effect and bit-reproducible for a fixed
// seed, which DESIGN.md §6 requires.
//
// Each proc body runs inside an iter.Pull coroutine: Sleep and Park yield
// back to RunUntil, which resumes the proc whose event comes up next. A
// coroutine switch is a direct transfer of control, and iter.Pull's race
// annotations order every access across it, so the engine needs no
// channels. The proc that is running dispatches events itself: when its
// own resumption is the next event it simply keeps running with no switch
// at all, and only a cross-proc handoff costs a yield plus a resume. Events
// live in a 64-cycle wheel of fixed inline buckets in front of a
// (cycle, sequence) binary heap (calqueue.go): the near events the
// simulator queues cost an occupancy-bit flip, with no allocation and no
// comparison sorting, and the rest go to the heap (DESIGN.md §16).
//
// A proc may also owe a sleep instead of taking it (Owe): the wake is
// queued as Sleep would queue it, but the proc keeps running. Its next
// Sleep turns that queued wake into the first leg of a two-leg event —
// dispatch queues the second leg itself when the first comes up, drawing
// the sequence number the woken proc would have drawn — so the pair costs
// one coroutine switch instead of two and retires in the identical
// (cycle, sequence) order. The code a proc runs while it owes must touch
// no simulated state; Park, Now, Settle and the body's return take the
// owed sleep first.
//
// A proc may go further and sleep through a continuation (SettleThen):
// when its wake comes up, dispatch calls a Cont in engine context instead
// of resuming the proc, and the Cont either returns the next sleep or
// hands the proc back at that event. The invariant that keeps this exact:
// the Cont touches only the state the proc itself would touch at that
// event, and every sleep it returns is queued with a fresh sequence
// number, drawn where the proc's own Sleep would draw it. A loop of short
// sleeps split by cheap work — a spin-wait probing a cached word — then
// retires in the identical (cycle, sequence) order without a coroutine
// switch per wake. When the sleep a continuation returns is itself the
// next event — nothing queued at or before its cycle, and the halt,
// deadline and limit checks of the pop would pass — dispatch takes it at
// once, with no push and no pop (run-ahead). cpu.Port plays each batch
// of queued ops — stores, LoadN loads and SpinUntil's lock and barrier
// probes — as one continuation that hands the proc back only at a closed
// gate, a cache miss or a store that needs the bus, and bus.Transact
// takes its tenure's tail as one; on the 4-processor golden cells,
// coroutine resumes per retired memory op fell from
//
//	radix 1.24 → 0.23, barnes 1.27 → 0.32, lu 1.19 → 0.26,
//	fft 1.04 → 0.20, ocean 0.98 → 0.22, falseshare 2.19 → 1.07
//
// (DESIGN.md §16 has the tables).
package sim

import (
	"fmt"
	"iter"
)

// Engine owns simulated time and the event queue.
type Engine struct {
	now uint64
	seq uint64
	q   calQueue
	// deadline is the active run slice's bound; dispatch stops before
	// popping any event beyond it. Run uses MaxUint64.
	deadline uint64
	// stop records why dispatch stopped with no proc to resume.
	stop stopReason
	// handoff is the proc whose event dispatch popped for RunUntil to
	// resume next, or nil when dispatch stopped.
	handoff *Proc
	live    int // procs spawned and not yet finished
	// procs registers every spawned proc so Abort can reach the ones
	// parked outside the event queue (wait queues hold them privately).
	procs   []*Proc
	limit   uint64
	halted  bool
	haltMsg string
	// resumes counts coroutine resumptions (RunUntil's next() calls).
	resumes uint64
}

// stopReason says why dispatch ran out of events to process.
type stopReason uint8

const (
	stopEmpty    stopReason = iota // no events remain
	stopHalt                       // Engine.Halt was called
	stopDeadline                   // next event lies beyond the slice deadline
	stopLimit                      // simulated time passed the cycle limit
)

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
//
// senss-lint:hotpath
func (e *Engine) Now() uint64 { return e.now }

// Schedule runs fn in engine context at absolute cycle at (>= Now).
//
// senss-lint:hotpath
func (e *Engine) Schedule(at uint64, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.q.push(event{at: at, seq: e.seq, fn: fn})
}

// After runs fn in engine context after delay cycles.
func (e *Engine) After(delay uint64, fn func()) { e.Schedule(e.now+delay, fn) }

// Halt stops the simulation at the end of the current event with the given
// reason. Used by the SENSS alarm: an authentication failure freezes the
// machine.
func (e *Engine) Halt(msg string) {
	e.halted = true
	e.haltMsg = msg
}

// Halted reports whether Halt was called, and the reason.
func (e *Engine) Halted() (bool, string) { return e.halted, e.haltMsg }

// Proc is a cooperative simulated thread of execution.
type Proc struct {
	e *Engine
	// next resumes the proc's coroutine until it yields (ok) or its body
	// returns (!ok); stop unwinds a suspended or unstarted coroutine;
	// yield, set once the body starts, suspends it from inside.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	name  string
	id    int
	done  bool
	// owes is set while the proc's wake from Owe sits in the queue and
	// the proc keeps running.
	owes bool
	// twoLeg marks the proc's queued wake as the first leg of a two-leg
	// event: dispatch requeues the proc leg cycles later instead of
	// resuming it.
	twoLeg bool
	leg    uint64
	// k, set while the proc sleeps through a continuation (SettleThen),
	// runs at each of its wakes in place of resuming it.
	k Cont
}

// Cont is a wake continuation (Proc.SettleThen). It runs in engine
// context at a proc's wake and returns either (d, true), to sleep the
// proc d more cycles, or (_, false), to resume the proc at this event.
type Cont func() (uint64, bool)

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// ID returns the proc's spawn index in its engine: 0 for the first proc
// spawned, 1 for the next. Layers key per-proc state by it.
//
// senss-lint:hotpath
func (p *Proc) ID() int { return p.id }

// Engine returns the owning engine.
//
// senss-lint:hotpath
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current simulated cycle, after taking any owed sleep.
//
// senss-lint:hotpath
func (p *Proc) Now() uint64 {
	p.Settle()
	return p.e.now
}

// procAborted is the sentinel Sleep/Park panic with when Abort stops a
// suspended proc; the coroutine body recovers it and returns.
type abortSentinel struct{}

var procAborted = abortSentinel{}

// Spawn creates a proc running fn, started at the current cycle (after
// already-queued events at this cycle).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name, id: len(e.procs)}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, aborted := r.(abortSentinel); !aborted {
					panic(r) // iter.Pull re-raises it in RunUntil's caller
				}
			}
		}()
		fn(p)
		p.Settle()
	})
	e.live++
	e.procs = append(e.procs, p)
	e.seq++
	e.q.push(event{at: e.now, seq: e.seq, p: p}) // the start event
	return p
}

// dispatch pops and runs events until one belongs to a proc or dispatch
// must stop. self is the running proc (it has already scheduled its own
// resumption, or parked), or nil when RunUntil dispatches.
//
// It returns true only when self's own resumption event came up — the
// caller simply continues, with no coroutine switch at all (the common
// case whenever other procs are blocked or idle this cycle). On false
// either e.handoff names the proc RunUntil must resume next, or it is nil
// and e.stop records why dispatch stopped; a running proc then yields.
//
// fn events run inline in whichever context dispatches; they are engine
// context either way because their code never blocks or sleeps.
//
// senss-lint:hotpath
func (e *Engine) dispatch(self *Proc) bool {
events:
	for {
		at, ok := e.q.peekAt()
		switch {
		case !ok:
			e.stop = stopEmpty
			return false
		case e.halted:
			e.stop = stopHalt
			return false
		case at > e.deadline:
			e.stop = stopDeadline
			return false
		}
		ev := e.q.popAt(at)
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		if e.limit != 0 && e.now > e.limit {
			e.stop = stopLimit
			return false
		}
		if ev.p == nil {
			ev.fn()
			continue
		}
		p := ev.p
		for p.twoLeg || p.k != nil {
			d, again := p.wake()
			if !again {
				break
			}
			// Queue the next sleep with the sequence number the proc
			// would draw on waking here — or, when that wake is the
			// next event anyway, take it at once.
			e.seq++
			at := e.now + d
			if !e.runAhead(at) {
				e.q.push(event{at: at, seq: e.seq, p: p})
				continue events
			}
			e.now = at
		}
		if p == self {
			return true
		}
		if p.done {
			panic(fmt.Sprintf("sim: resuming finished proc %q", p.name))
		}
		e.handoff = p
		return false
	}
}

// runAhead reports whether a wake the engine is about to queue at cycle
// at would be the very next event dispatch pops and retires: no queued
// event lies at or before at, and the halt, deadline and limit checks
// the pop would face all pass. The wake carries the newest sequence
// number, so it would follow every queued event of its cycle; with none
// there or earlier it is next. The caller then sets the clock and takes
// the wake with no push and no pop, in the identical (cycle, sequence)
// order.
//
// senss-lint:hotpath
func (e *Engine) runAhead(at uint64) bool {
	if e.halted || at > e.deadline || e.limit != 0 && at > e.limit {
		return false
	}
	return e.q.advance(at)
}

// wake runs a proc's wake in engine context: the first leg of a two-leg
// sleep yields the second, and a continuation decides for itself. It
// returns the next sleep, or false when the proc must be resumed.
//
// senss-lint:hotpath
func (p *Proc) wake() (uint64, bool) {
	if p.twoLeg {
		p.twoLeg = false
		return p.leg, true
	}
	d, again := p.k()
	if !again {
		p.k = nil
	}
	return d, again
}

// Sleep suspends the proc for d simulated cycles (0 means yield to other
// events at this cycle). A proc that owes a sleep takes both at once: the
// owed wake becomes the first leg of a two-leg event and d the second.
//
// senss-lint:hotpath
func (p *Proc) Sleep(d uint64) {
	if p.owes {
		p.owes = false
		p.twoLeg, p.leg = true, d
	} else {
		e := p.e
		e.seq++
		e.q.push(event{at: e.now + d, seq: e.seq, p: p})
	}
	p.suspend()
}

// Owe charges d simulated cycles without suspending: the wake is queued
// exactly as Sleep(d) would queue it, and the proc keeps running until
// its next Sleep, Park, Now or Settle, or the end of its body, takes the
// owed sleep. Until then the proc must touch no simulated state — its
// clock still reads the cycle before the charge.
//
// senss-lint:hotpath
func (p *Proc) Owe(d uint64) {
	p.Settle()
	e := p.e
	e.seq++
	e.q.push(event{at: e.now + d, seq: e.seq, p: p})
	p.owes = true
}

// Settle takes any sleep the proc owes, as a plain Sleep would have.
//
// senss-lint:hotpath
func (p *Proc) Settle() {
	if p.owes {
		p.owes = false
		p.suspend()
	}
}

// SettleThen takes the proc's owed sleep through continuation k: at the
// owed wake, and at every later wake k asks for, dispatch calls k in
// engine context instead of resuming the proc. SettleThen returns at the
// event where k hands the proc back. A proc that owes nothing runs k at
// once, and sleeps only if k asks it to.
//
// k must touch only the state the proc itself would touch at each of
// those events; the engine queues every sleep k returns exactly as the
// proc's own Sleep would, so the whole loop retires as the proc sleeping
// it would, minus one coroutine switch per wake.
//
// senss-lint:hotpath
func (p *Proc) SettleThen(k Cont) {
	if !p.owes {
		d, again := k()
		if !again {
			return
		}
		p.Owe(d)
	}
	p.owes = false
	p.k = k
	p.suspend()
}

// suspend dispatches onward from the running proc, whose wake is already
// queued (or which is parking), and yields unless that wake comes up
// first.
//
// senss-lint:hotpath
func (p *Proc) suspend() {
	if !p.e.dispatch(p) && !p.yield(struct{}{}) {
		panic(procAborted) // Abort stopped the coroutine: unwind the body
	}
}

// Park suspends the proc indefinitely; another party must wake it via a
// Queue or Engine.Unpark. If an Unpark at this cycle was already queued,
// dispatch reaches it and the proc keeps running.
//
// senss-lint:hotpath
func (p *Proc) Park() {
	p.Settle()
	p.suspend()
}

// Unpark schedules parked proc q to resume at the current cycle. It may be
// called from engine context or from another running proc.
//
// senss-lint:hotpath
func (e *Engine) Unpark(q *Proc) {
	e.seq++
	e.q.push(event{at: e.now, seq: e.seq, p: q})
}

// DeadlockError reports that no events remain while procs are still alive.
type DeadlockError struct {
	Cycle  uint64
	Parked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d, parked procs: %v", d.Cycle, d.Parked)
}

// LimitError reports that the run exceeded the configured cycle limit.
type LimitError struct{ Limit uint64 }

func (l *LimitError) Error() string {
	return fmt.Sprintf("sim: exceeded cycle limit %d (livelock?)", l.Limit)
}

// Resumes returns how many times the engine has resumed a proc's
// coroutine: the host cost that owed sleeps and continuations save.
func (e *Engine) Resumes() uint64 { return e.resumes }

// Seq returns the engine's sequence counter: how many events have been
// queued so far. Two runs that queue the same events in the same order
// end with the same count.
func (e *Engine) Seq() uint64 { return e.seq }

// SetLimit aborts Run with a LimitError once simulated time passes limit
// cycles. Zero disables the limit.
func (e *Engine) SetLimit(limit uint64) { e.limit = limit }

// Run processes events until none remain or the engine halts. It returns a
// *DeadlockError if procs are still alive with an empty event queue, and a
// *LimitError if the cycle limit is exceeded.
//
// senss-lint:hotpath
func (e *Engine) Run() error {
	_, err := e.RunUntil(^uint64(0))
	return err
}

// RunUntil processes events whose cycle is <= deadline, then stops with
// the clock advanced to deadline. It returns done == true when the
// simulation finished (no events remain, the engine halted, or an error
// ended the run) and done == false when events beyond the deadline are
// still pending. Slicing is invisible to the simulation: events are
// dispatched in exactly the (cycle, sequence) order Run would use, so a
// run chopped into arbitrary slices retires the same events at the same
// cycles and produces bit-identical state — the property the serving
// layer's incremental sessions (internal/driver.Session) rely on.
//
// A panic in a proc body (other than Abort's unwinding) propagates to
// RunUntil's caller with its original value.
//
// senss-lint:hotpath
func (e *Engine) RunUntil(deadline uint64) (done bool, err error) {
	e.deadline = deadline
	e.handoff = nil
	e.dispatch(nil)
	for e.handoff != nil {
		p := e.handoff
		e.handoff = nil
		e.resumes++
		if _, running := p.next(); !running {
			// The body returned: retire the proc and dispatch onward
			// like a Sleep that never wakes.
			p.done = true
			e.live--
			e.dispatch(nil)
		}
	}
	switch e.stop {
	case stopDeadline:
		// The slice is exhausted: advance the clock so the next
		// slice's deadline moves forward even across empty gaps.
		// This never affects the final state — completion below
		// happens while popping events, with now at the last event.
		if deadline > e.now {
			e.now = deadline
		}
		return false, nil
	case stopHalt:
		return true, nil
	case stopLimit:
		//senss-lint:ignore hotpath failure path: the run is over, one error record is fine
		return true, &LimitError{Limit: e.limit}
	default: // stopEmpty
		if e.live > 0 {
			//senss-lint:ignore hotpath failure path: the run is over, one error record is fine
			return true, &DeadlockError{Cycle: e.now, Parked: e.liveNames()}
		}
		return true, nil
	}
}

// Abort tears the simulation down mid-run: every live proc — parked,
// sleeping, or not yet started — is stopped, which resumes a suspended
// body into a sentinel panic that unwinds it (running its defers), and the
// event queue is dropped. Must be called from engine-caller context (never
// from inside a proc or event callback). The engine is unusable
// afterwards; counters and the clock remain readable. Idempotent.
func (e *Engine) Abort() {
	e.q.reset()
	e.handoff = nil
	for _, p := range e.procs {
		if !p.done {
			p.done = true
			e.live--
			p.stop()
		}
	}
	e.procs = nil
}

// liveNames names the still-live procs for the deadlock report.
//
// senss-lint:coldpath deadlock diagnostics: runs once, after the simulation is already dead
func (e *Engine) liveNames() []string {
	var names []string
	for _, p := range e.procs {
		if !p.done {
			names = append(names, p.name)
		}
	}
	return names
}

// Queue is a FIFO wait queue for procs — the building block for the bus
// arbiter, simulated mutexes, and condition variables.
type Queue struct {
	waiters []*Proc
}

// Wait appends the calling proc and parks it until woken.
//
// senss-lint:hotpath
func (q *Queue) Wait(p *Proc) {
	//senss-lint:ignore hotpath amortized growth: the waiter list reaches steady-state capacity after warmup
	q.waiters = append(q.waiters, p)
	p.Park()
}

// Len returns the number of parked waiters.
//
// senss-lint:hotpath
func (q *Queue) Len() int { return len(q.waiters) }

// WakeOne unparks the oldest waiter, if any, and reports whether one existed.
//
// senss-lint:hotpath
func (q *Queue) WakeOne(e *Engine) bool {
	if len(q.waiters) == 0 {
		return false
	}
	p := q.waiters[0]
	copy(q.waiters, q.waiters[1:])
	q.waiters = q.waiters[:len(q.waiters)-1]
	e.Unpark(p)
	return true
}

// WakeAll unparks every waiter in FIFO order.
//
// senss-lint:hotpath
func (q *Queue) WakeAll(e *Engine) {
	for _, p := range q.waiters {
		e.Unpark(p)
	}
	q.waiters = q.waiters[:0]
}

// Mutex is a FIFO simulated-time mutex.
type Mutex struct {
	held bool
	q    Queue
}

// Lock acquires the mutex, parking the proc until it is granted.
//
// senss-lint:hotpath
func (m *Mutex) Lock(p *Proc) {
	for m.held {
		m.q.Wait(p)
	}
	m.held = true
}

// Unlock releases the mutex and wakes the next waiter.
//
// senss-lint:hotpath
func (m *Mutex) Unlock(p *Proc) {
	if !m.held {
		panic("sim: unlock of unlocked mutex")
	}
	m.held = false
	m.q.WakeOne(p.e)
}
