// Package lockfix seeds every lockguard finding class next to a clean
// twin, in the expected-diagnostic golden format: each planted
// violation carries a // want comment with a substring of the expected
// message, and the clean twin right beside it must stay silent.
package lockfix

import (
	"sync"
	"time"
)

// Counter is the plain-Mutex shape: one guard, one guarded field.
type Counter struct {
	mu sync.Mutex
	//senss-lint:guardedby mu
	n int
}

// IncClean is the canonical critical section.
func (c *Counter) IncClean() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// addOne and bump are *Locked-style helpers: they touch the guarded
// field without locking, so lockguard gives them a requires-lock
// summary instead of a finding, and judges their call sites.
func (c *Counter) addOne() { c.n++ }

func (c *Counter) bump() { c.n++ }

// BumpClean satisfies bump's hoisted requirement.
func (c *Counter) BumpClean() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump()
}

// middle hoists addOne's requirement one more level: the operand is
// middle's own parameter, so the precondition becomes middle's.
func middle(c *Counter) {
	c.addOne()
}

// topClean discharges the transitively hoisted requirement.
func topClean() {
	var c Counter
	c.mu.Lock()
	middle(&c)
	c.mu.Unlock()
}

// topBad calls through the same chain without the lock; the operand is
// a local, so the requirement can hoist no further and is reported.
func topBad() {
	var c Counter
	middle(&c) // want "requires c.mu to be held"
}

// bumpLocal is the single-hop version of the same finding.
func bumpLocal() {
	var c Counter
	c.bump() // want "requires c.mu to be held"
}

// maybeBad locks on only one branch: the access is reachable unlocked.
func (c *Counter) maybeBad(flag bool) {
	if flag {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.n++ // want "not locked on every path"
}

//senss-lint:ignore lockguard constructor: the Counter has not escaped yet, no other goroutine can observe the write
func newCounter() *Counter {
	c := &Counter{}
	c.n = 42
	return c
}

// lockLeak takes the lock but an early return path never releases it.
func lockLeak(c *Counter) {
	c.mu.Lock()
	if c.n > 0 {
		return // want "not released on this return path"
	}
	c.mu.Unlock()
}

// lockLeakClean releases on every path via defer.
func lockLeakClean(c *Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		return
	}
	c.n--
}

// doubleLock re-acquires a mutex the path already holds.
func doubleLock(c *Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.Lock() // want "second Lock of c.mu on this path would deadlock"
}

// unlockNotHeld releases a mutex no path has acquired.
func unlockNotHeld(c *Counter) {
	c.mu.Unlock() // want "not locked on this path"
}

// doubleUnlock releases explicitly with a deferred release scheduled.
func doubleUnlock(c *Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = 1
	c.mu.Unlock() // want "deferred release is already scheduled"
}

// deferredClosureUnlockClean releases through a deferred closure: its
// Unlock is the one scheduled release.
func deferredClosureUnlockClean(c *Counter) {
	c.mu.Lock()
	defer func() { c.mu.Unlock() }()
	c.n = 1
}

// deferredClosureDoubleUnlock also releases explicitly while the deferred
// closure's release is pending.
func deferredClosureDoubleUnlock(c *Counter) {
	c.mu.Lock()
	defer func() { c.mu.Unlock() }()
	c.n = 1
	c.mu.Unlock() // want "deferred release is already scheduled"
}

// Stats is the RWMutex shape.
type Stats struct {
	mu sync.RWMutex
	//senss-lint:guardedby mu
	hits int
}

// ReadClean reads under the read side.
func (s *Stats) ReadClean() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hits
}

// WriteClean writes under the write side.
func (s *Stats) WriteClean() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
}

// writeUnderRLock mutates with only the read side held.
func (s *Stats) writeUnderRLock() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.hits++ // want "written with only RLock held"
}

// wrongUnlock releases the write side of a read-side acquisition.
func (s *Stats) wrongUnlock() {
	s.mu.RLock()
	s.mu.Unlock() // want "only RLock is held"
}

// A and B give the lock-order graph two annotated classes.
type A struct {
	mu sync.Mutex
	//senss-lint:guardedby mu
	x int
}

type B struct {
	mu sync.Mutex
	//senss-lint:guardedby mu
	y int
}

// abOrder nests B inside A; baOrder nests A inside B. Together they
// close a cycle in the module lock-order graph, reported once at the
// earliest edge of the cycle — the acquisition below.
func abOrder(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want "lock-order cycle (deadlock candidate)"
	b.y = 1
	a.x = 1
	b.mu.Unlock()
	a.mu.Unlock()
}

func baOrder(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.x = 2
	b.y = 2
	a.mu.Unlock()
	b.mu.Unlock()
}

// C demonstrates the self-edge case: nesting two instances of the same
// class is a deadlock candidate the moment two goroutines pick opposite
// orders.
type C struct {
	mu sync.Mutex
	//senss-lint:guardedby mu
	q int
}

func nestSame(u, v *C) {
	u.mu.Lock()
	v.mu.Lock() // want "lock-order cycle (deadlock candidate)"
	u.q = 1
	v.q = 1
	v.mu.Unlock()
	u.mu.Unlock()
}

// spawnClean: the goroutine takes the lock itself.
func (c *Counter) spawnClean() {
	go func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}()
}

// spawnBad: the creator's critical section does not extend into the
// goroutine.
func (c *Counter) spawnBad() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "captured in a go statement without c.mu held"
	}()
}

// spawnRequireBad hands a requires-lock helper to a goroutine; the
// precondition cannot be satisfied across the boundary.
func (c *Counter) spawnRequireBad() {
	go c.addOne() // want "cannot cross a goroutine boundary"
}

// handlerClean returns a closure that locks for itself.
func (c *Counter) handlerClean() func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}
}

// handlerBad returns a closure that relies on a lock it never takes.
func (c *Counter) handlerBad() func() {
	return func() {
		c.n++ // want "captured in an escaping func literal without c.mu held"
	}
}

// Queue mixes a guarded counter with an unguarded channel.
type Queue struct {
	mu sync.Mutex
	//senss-lint:guardedby mu
	pending int
	ch      chan int
}

// SendClean leaves the critical section before the channel op.
func (q *Queue) SendClean(v int) {
	q.mu.Lock()
	q.pending++
	q.mu.Unlock()
	q.ch <- v
}

// sendBad holds the annotated mutex across a blocking send.
func (q *Queue) sendBad(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending++
	q.ch <- v // want "q.mu is held across a blocking channel send"
}

// recvBad holds it across a blocking receive.
func (q *Queue) recvBad() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return <-q.ch // want "held across a blocking channel receive"
}

// pollClean: select with a default never blocks, and the comm clause's
// receive is governed by the select, not judged on its own.
func (q *Queue) pollClean() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case v := <-q.ch:
		return v
	default:
		return 0
	}
}

// wait blocks via an external callee; the summary propagates.
func (q *Queue) wait() {
	time.Sleep(time.Millisecond)
}

// waitBad holds the mutex across the transitively blocking call.
func (q *Queue) waitBad() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.wait() // want "q.mu is held across a call to Queue.wait, which blocks"
}

// waitClean releases before blocking.
func (q *Queue) waitClean() {
	q.mu.Lock()
	q.pending = 0
	q.mu.Unlock()
	q.wait()
}

// Bad's annotation names a field that is not a mutex: the annotation
// itself is the finding.
type Bad struct {
	mu sync.Mutex
	//senss-lint:guardedby lock — want "names no sync.Mutex or sync.RWMutex field"
	z int
}

// use keeps every planted shape referenced so the fixture type-checks
// without unused-symbol errors.
func use() {
	c := newCounter()
	c.IncClean()
	c.BumpClean()
	topClean()
	topBad()
	bumpLocal()
	c.maybeBad(true)
	lockLeak(c)
	lockLeakClean(c)
	doubleLock(c)
	unlockNotHeld(c)
	doubleUnlock(c)
	s := &Stats{}
	_ = s.ReadClean()
	s.WriteClean()
	s.writeUnderRLock()
	s.wrongUnlock()
	abOrder(&A{}, &B{})
	baOrder(&A{}, &B{})
	nestSame(&C{}, &C{})
	c.spawnClean()
	c.spawnBad()
	c.spawnRequireBad()
	c.handlerClean()()
	c.handlerBad()()
	q := &Queue{ch: make(chan int, 1)}
	q.SendClean(1)
	q.sendBad(1)
	_ = q.recvBad()
	_ = q.pollClean()
	q.waitBad()
	q.waitClean()
	_ = Bad{}.z
	_ = Bad{}.mu
}
