package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same cycle: FIFO
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %d, want 10", e.Now())
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var at []uint64
	e.Spawn("a", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(7)
		at = append(at, p.Now())
		p.Sleep(0)
		at = append(at, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 7, 7}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("at[%d] = %d, want %d", i, at[i], want[i])
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "a")
				p.Sleep(2)
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "b")
				p.Sleep(3)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("trace length varies")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d: trace differs at %d: %v vs %v", i, j, got, first)
				}
			}
		}
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	var q Queue
	var order []string
	block := func(name string) {
		e.Spawn(name, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	block("first")
	block("second")
	block("third")
	e.Schedule(5, func() { q.WakeAll(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Errorf("order = %v", order)
	}
}

func TestQueueWakeOne(t *testing.T) {
	e := NewEngine()
	var q Queue
	woken := 0
	e.Spawn("w1", func(p *Proc) { q.Wait(p); woken++ })
	e.Spawn("w2", func(p *Proc) { q.Wait(p); woken++ })
	e.Schedule(1, func() { q.WakeOne(e) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError (one waiter left), got %v", err)
	}
	if woken != 1 {
		t.Errorf("woken = %d, want 1", woken)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	e := NewEngine()
	var m Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		e.Spawn("locker", func(p *Proc) {
			for n := 0; n < 10; n++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(3)
				inside--
				m.Unlock(p)
				p.Sleep(1)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Errorf("max procs inside critical section = %d", maxInside)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	var q Queue
	e.Spawn("done", func(p *Proc) { p.Sleep(1) })
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Parked) != 1 || dl.Parked[0] != "stuck" {
		t.Errorf("Parked = %v, want [stuck]", dl.Parked)
	}
	e.Abort()
}

func TestCycleLimit(t *testing.T) {
	e := NewEngine()
	e.SetLimit(100)
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	err := e.Run()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want LimitError, got %v", err)
	}
}

func TestHaltStopsRun(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("victim", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			steps++
			if i == 5 {
				e.Halt("alarm")
			}
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	halted, msg := e.Halted()
	if !halted || msg != "alarm" {
		t.Errorf("Halted = %v %q", halted, msg)
	}
	if steps > 7 {
		t.Errorf("ran %d steps after halt", steps)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(2)
			childRan = true
		})
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child never ran")
	}
	if e.Now() != 15 {
		t.Errorf("Now = %d, want 15", e.Now())
	}
}

func TestUnparkResumesAtCurrentCycle(t *testing.T) {
	e := NewEngine()
	var wakeTime uint64
	var sleeper *Proc
	sleeper = e.Spawn("sleeper", func(p *Proc) {
		p.Park()
		wakeTime = p.Now()
	})
	e.Schedule(42, func() { e.Unpark(sleeper) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeTime != 42 {
		t.Errorf("woke at %d, want 42", wakeTime)
	}
}

// TestRunUntilSlicedMatchesRun drives the same two-proc workload whole
// and chopped into arbitrary slices, and demands the identical trace —
// the bit-reproducibility contract incremental sessions rest on.
func TestRunUntilSlicedMatchesRun(t *testing.T) {
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
		rec("a", 2, 9)
		rec("b", 3, 7)
		rec("c", 5, 4)
		return e, &trace
	}

	whole, wholeTrace := build()
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}

	for _, slice := range []uint64{1, 3, 7} {
		e, trace := build()
		steps := 0
		for {
			done, err := e.RunUntil(e.Now() + slice)
			if err != nil {
				t.Fatal(err)
			}
			steps++
			if steps > 10000 {
				t.Fatal("sliced run never finished")
			}
			if done {
				break
			}
		}
		if e.Now() != whole.Now() {
			t.Errorf("slice %d: final cycle %d, want %d", slice, e.Now(), whole.Now())
		}
		if len(*trace) != len(*wholeTrace) {
			t.Fatalf("slice %d: trace length %d, want %d", slice, len(*trace), len(*wholeTrace))
		}
		for i := range *trace {
			if (*trace)[i] != (*wholeTrace)[i] {
				t.Fatalf("slice %d: trace differs at %d", slice, i)
			}
		}
	}
}

// TestRunUntilAdvancesAcrossEmptyGaps pins the clock semantics: a slice
// whose deadline falls short of the next event still moves Now forward,
// so a fixed-slice caller always makes progress.
func TestRunUntilAdvancesAcrossEmptyGaps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(1000, func() { ran = true })
	for i := 0; i < 9; i++ {
		done, err := e.RunUntil(e.Now() + 100)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("done after %d cycles with the event still pending", e.Now())
		}
	}
	if e.Now() != 900 {
		t.Errorf("Now = %d, want 900", e.Now())
	}
	done, err := e.RunUntil(e.Now() + 100)
	if err != nil || !done || !ran {
		t.Errorf("done=%v err=%v ran=%v after the final slice", done, err, ran)
	}
	if e.Now() != 1000 {
		t.Errorf("final Now = %d, want 1000", e.Now())
	}
}

// TestRunUntilDeadlockSurfaces pins that a genuine deadlock inside a
// slice is reported as done with the DeadlockError, not as an
// exhausted slice.
func TestRunUntilDeadlockSurfaces(t *testing.T) {
	e := NewEngine()
	var q Queue
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	done, err := e.RunUntil(e.Now() + 50)
	if !done {
		t.Fatal("deadlock not surfaced as done")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
}

// TestAbortTerminatesLiveProcs drives a mid-run abort: parked, sleeping,
// and unstarted procs must all unwind, leaving zero live procs, and the
// deferred cleanup of each proc body must still run.
func TestAbortTerminatesLiveProcs(t *testing.T) {
	e := NewEngine()
	var q Queue
	cleanups := 0
	e.Spawn("parked", func(p *Proc) {
		defer func() { cleanups++ }()
		q.Wait(p)
	})
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { cleanups++ }()
		for {
			p.Sleep(10)
		}
	})
	if done, err := e.RunUntil(e.Now() + 25); done || err != nil {
		t.Fatalf("done=%v err=%v, want a paused mid-run engine", done, err)
	}
	e.Spawn("unstarted", func(p *Proc) {
		defer func() { cleanups++ }()
		p.Sleep(1)
	})
	e.Abort()
	if e.live != 0 {
		t.Errorf("live = %d after Abort, want 0", e.live)
	}
	if e.q.len() != 0 {
		t.Errorf("%d events survived Abort", e.q.len())
	}
	// The sleeper's deferred cleanup observed the unwind; the parked and
	// unstarted procs likewise.
	if cleanups != 2 {
		// The unstarted proc returns before fn runs, so its body's defer
		// never existed; only the two started procs unwind through theirs.
		t.Errorf("cleanups = %d, want 2", cleanups)
	}
	e.Abort() // idempotent
}

// TestProcPanicReachesCaller pins that a genuine panic in a proc body
// surfaces in RunUntil's caller with its original value, and that Abort
// afterwards still returns every other proc's coroutine.
func TestProcPanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var q Queue
	e.Spawn("parked", func(p *Proc) { q.Wait(p) })
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(3)
		}
	})
	e.Spawn("buggy", func(p *Proc) {
		p.Sleep(10)
		panic("planted bug")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = e.Run()
		return nil
	}()
	if got != "planted bug" {
		t.Fatalf("recovered %v, want the proc's panic value", got)
	}
	e.Spawn("unstarted", func(p *Proc) {})
	e.Abort()
	// Exited goroutines are reaped asynchronously; allow them a moment.
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Abort, baseline %d", n, base)
	}
}
