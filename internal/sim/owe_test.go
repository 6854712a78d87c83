package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// A oweStep is one scripted action of a fuzzed proc. The owed twin
// interprets it with Owe where the plain twin sleeps, and with a wake
// continuation where the plain twin loops over sleeps.
type oweStep struct {
	kind    int
	a, b, c uint64
	legs    []uint64 // stepCont, stepContNow: the sleeps the loop takes
	haltLeg int      // the loop halts the engine at this wake; -1 = never
}

const (
	stepPair    = iota // Owe(a) | Sleep(a); Sleep(b)
	stepSettle         // Owe(a); Settle() | Sleep(a)
	stepNow            // Owe(a); Now() | Sleep(a); Now()
	stepPark           // unpark due at a+c; Owe(a) | Sleep(a); Park()
	stepDouble         // Owe(a); Owe(b) | Sleep(a); Sleep(b); then Sleep(c)
	stepObserve        // schedule an observer a cycles ahead
	stepPlain          // Sleep(a)
	stepCont           // Owe(a); SettleThen(k) | Sleep(a); wake, Sleep(leg)...; wake
	stepContNow        // SettleThen(k) | wake, Sleep(leg)...; wake
	numStepKinds
)

// oweScript is one fuzzed schedule: per-proc step lists, start-up
// observers, and how the engine is driven.
type oweScript struct {
	procs     [][]oweStep
	tailOwe   []uint64 // a final Owe (or Sleep) before each body returns; 0 = none
	observers []uint64 // cycles of observers scheduled before the run
	slices    []uint64 // RunUntil slice lengths, cycled
	haltAt    uint64   // an fn event halts the engine here; 0 = never
	limit     uint64   // the engine's cycle limit; 0 = none
	abortLeft int      // Abort after this many slices; 0 = never
}

// oweDelay draws a sleep length: mostly short, sometimes zero, now and
// then past the wheel window.
func oweDelay(r *rand.Rand) uint64 {
	switch r.Intn(10) {
	case 0:
		return 0
	case 1:
		return uint64(wheelBuckets + r.Intn(2*wheelBuckets))
	default:
		return uint64(1 + r.Intn(12))
	}
}

func newOweScript(r *rand.Rand) oweScript {
	s := oweScript{}
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		steps := make([]oweStep, r.Intn(40))
		for k := range steps {
			steps[k] = oweStep{kind: r.Intn(numStepKinds), a: oweDelay(r), b: oweDelay(r), c: oweDelay(r), haltLeg: -1}
			if kind := steps[k].kind; kind == stepCont || kind == stepContNow {
				for j := r.Intn(8); j > 0; j-- {
					steps[k].legs = append(steps[k].legs, oweDelay(r))
				}
				if r.Intn(8) == 0 {
					steps[k].haltLeg = r.Intn(len(steps[k].legs) + 1)
				}
			}
		}
		s.procs = append(s.procs, steps)
		var tail uint64
		if r.Intn(2) == 0 {
			tail = 1 + oweDelay(r)
		}
		s.tailOwe = append(s.tailOwe, tail)
	}
	for i := r.Intn(6); i > 0; i-- {
		s.observers = append(s.observers, uint64(r.Intn(400)))
	}
	for i := 1 + r.Intn(4); i > 0; i-- {
		if r.Intn(3) == 0 {
			s.slices = append(s.slices, 1)
		} else {
			s.slices = append(s.slices, 1+uint64(r.Intn(300)))
		}
	}
	if r.Intn(4) == 0 {
		s.haltAt = 1 + uint64(r.Intn(500))
	}
	if r.Intn(4) == 0 {
		s.limit = 1 + uint64(r.Intn(600))
	}
	if r.Intn(4) == 0 {
		s.abortLeft = 1 + r.Intn(40)
	}
	return s
}

// oweRec is one observable retirement: a proc finishing a step or
// waking inside a continuation loop (leg > 0), or an observer firing, at
// a cycle.
type oweRec struct {
	who, step, leg int
	cycle          uint64
}

// oweOutcome is everything a run of the script exposes.
type oweOutcome struct {
	trace   []oweRec
	clocks  []uint64 // the clock after each RunUntil slice
	now     uint64
	seq     uint64
	live    int
	done    bool
	err     string
	halted  bool
	resumes uint64
}

// runOweScript plays s on a fresh engine, with Owe (owed) or with plain
// sleeps in its place.
func runOweScript(s oweScript, owed bool) oweOutcome {
	e := NewEngine()
	var trace []oweRec
	nextObs := 0
	observe := func(at uint64) {
		id := nextObs
		nextObs++
		e.Schedule(at, func() { trace = append(trace, oweRec{-1, id, 0, e.Now()}) })
	}
	charge := func(p *Proc, d uint64) {
		if owed {
			p.Owe(d)
		} else {
			p.Sleep(d)
		}
	}
	for i, steps := range s.procs {
		i, steps, tail := i, steps, s.tailOwe[i]
		e.Spawn(fmt.Sprint("p", i), func(p *Proc) {
			local := 0 // Go state the owed window may touch
			for k, st := range steps {
				switch st.kind {
				case stepPair:
					charge(p, st.a)
					local++
					p.Sleep(st.b)
				case stepSettle:
					charge(p, st.a)
					p.Settle()
				case stepNow:
					charge(p, st.a)
					local += int(p.Now() & 1)
				case stepPark:
					at := e.now + st.a + st.c
					e.Schedule(at, func() { e.Unpark(p) })
					charge(p, st.a)
					p.Park()
				case stepDouble:
					charge(p, st.a)
					charge(p, st.b)
					p.Sleep(st.c)
				case stepObserve:
					observe(e.now + st.a)
				case stepPlain:
					p.Sleep(st.a)
				case stepCont, stepContNow:
					// Each wake of the loop records itself and may halt
					// the engine: the state the proc touches there.
					wake := func(leg int) {
						trace = append(trace, oweRec{i, k, leg + 1, e.now})
						if leg == st.haltLeg {
							e.Halt("halted in a continuation")
						}
					}
					if st.kind == stepCont {
						charge(p, st.a)
					}
					if owed {
						leg := 0
						p.SettleThen(func() (uint64, bool) {
							wake(leg)
							if leg == len(st.legs) {
								return 0, false
							}
							leg++
							return st.legs[leg-1], true
						})
					} else {
						for leg := 0; ; leg++ {
							wake(leg)
							if leg == len(st.legs) {
								break
							}
							p.Sleep(st.legs[leg])
						}
					}
				}
				trace = append(trace, oweRec{i, k, 0, e.now}) // a read that settles nothing
			}
			if tail > 0 {
				charge(p, tail)
			}
			_ = local
		})
	}
	for _, at := range s.observers {
		observe(at)
	}
	if s.haltAt > 0 {
		e.Schedule(s.haltAt, func() { e.Halt("fuzzed halt") })
	}
	e.SetLimit(s.limit)
	out := oweOutcome{}
	for n := 0; ; n++ {
		if s.abortLeft > 0 && n == s.abortLeft {
			e.Abort()
			break
		}
		done, err := e.RunUntil(e.Now() + s.slices[n%len(s.slices)])
		out.clocks = append(out.clocks, e.now)
		if err != nil {
			out.err = err.Error()
		}
		if done {
			out.done = true
			break
		}
	}
	out.trace, out.now, out.seq, out.live, out.resumes = trace, e.now, e.seq, e.live, e.resumes
	out.halted, _ = e.Halted()
	return out
}

// TestOweMatchesPlainSleeps is the exactness property behind Owe and
// SettleThen: fuzzed procs whose sleeps are owed and later taken as
// two-leg events, or taken through a wake continuation, retire every step,
// every continuation wake and every fn event at the same cycle, in the
// same order, and draw the same sequence numbers as a twin engine
// sleeping each leg plainly — across random RunUntil slices (1-cycle ones
// included), far-future sleeps, parks, a halt at a random cycle or from
// inside a continuation, a cycle limit, and a mid-run Abort that can
// catch a proc sleeping through one. A continuation wake that is the
// next event is taken at once, with no push and no pop (dispatch's
// run-ahead); the slice deadline, the halt and the limit must stop it
// exactly where they stop a popped wake, so the clock after every slice
// is compared too.
func TestOweMatchesPlainSleeps(t *testing.T) {
	fewer := 0
	for seed := int64(1); seed <= 400; seed++ {
		s := newOweScript(rand.New(rand.NewSource(seed)))
		owed, plain := runOweScript(s, true), runOweScript(s, false)
		if len(owed.trace) != len(plain.trace) {
			t.Fatalf("seed %d: %d retirements owed, %d plain", seed, len(owed.trace), len(plain.trace))
		}
		for i := range owed.trace {
			if owed.trace[i] != plain.trace[i] {
				t.Fatalf("seed %d: retirement %d is %+v owed, %+v plain", seed, i, owed.trace[i], plain.trace[i])
			}
		}
		if fmt.Sprint(owed.clocks) != fmt.Sprint(plain.clocks) {
			t.Fatalf("seed %d: clock after each slice %v owed, %v plain", seed, owed.clocks, plain.clocks)
		}
		if owed.now != plain.now || owed.seq != plain.seq || owed.live != plain.live ||
			owed.done != plain.done || owed.err != plain.err || owed.halted != plain.halted {
			t.Fatalf("seed %d: owed ended %+v, plain %+v", seed,
				[]any{owed.now, owed.seq, owed.live, owed.done, owed.err, owed.halted},
				[]any{plain.now, plain.seq, plain.live, plain.done, plain.err, plain.halted})
		}
		if owed.resumes > plain.resumes {
			t.Fatalf("seed %d: %d resumes owed, %d plain", seed, owed.resumes, plain.resumes)
		}
		if owed.resumes < plain.resumes {
			fewer++
		}
	}
	if fewer == 0 {
		t.Error("no script saved a single coroutine resume")
	}
}

// TestContinuationSpinCostsNoResume pins the point of SettleThen: a proc
// that spins through a continuation — 3-cycle legs, each wake touching
// its own state — while another proc computes in 1-cycle sleeps is
// resumed only to start and to leave the spin, where the same spin slept
// plainly costs one resume per wake.
func TestContinuationSpinCostsNoResume(t *testing.T) {
	const legs, compute = 200, 400 // the spin outlasts the computation
	run := func(cont bool) (resumes, end uint64, wakes int) {
		e := NewEngine()
		e.Spawn("spinner", func(p *Proc) {
			if cont {
				p.Owe(3)
				p.SettleThen(func() (uint64, bool) {
					wakes++
					return 3, wakes < legs
				})
				return
			}
			for wakes < legs {
				p.Sleep(3)
				wakes++
			}
		})
		e.Spawn("compute", func(p *Proc) {
			for i := 0; i < compute; i++ {
				p.Sleep(1)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.resumes, e.Now(), wakes
	}
	contResumes, contEnd, contWakes := run(true)
	plainResumes, plainEnd, plainWakes := run(false)
	if contEnd != plainEnd || contWakes != plainWakes || contWakes != legs {
		t.Fatalf("continuation ended at %d after %d wakes, plain at %d after %d", contEnd, contWakes, plainEnd, plainWakes)
	}
	// Two start-ups and the spinner's hand-back at its last wake; the
	// computing proc is never switched away from.
	if contResumes != 3 {
		t.Errorf("continuation spin: %d resumes, want 3", contResumes)
	}
	if plainResumes < contResumes+legs {
		t.Errorf("plain spin: %d resumes, want at least %d", plainResumes, contResumes+legs)
	}
}

// TestOweHalvesResumes pins the switch count of the simulator's common
// case: four procs in lockstep, each alternating a 2-cycle hit latency
// with a 1-cycle compute gap. Every wake is a cross-proc handoff; owing
// the hit folds it into the next gap, so the owed engine resumes procs
// half as often — four start-ups plus one resume per operation.
func TestOweHalvesResumes(t *testing.T) {
	const procs, ops = 4, 100
	run := func(owed bool) (uint64, uint64) {
		e := NewEngine()
		for i := 0; i < procs; i++ {
			e.Spawn("cpu", func(p *Proc) {
				for k := 0; k < ops; k++ {
					if owed {
						p.Owe(2)
					} else {
						p.Sleep(2)
					}
					p.Sleep(1)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.resumes, e.Now()
	}
	owed, owedEnd := run(true)
	plain, plainEnd := run(false)
	if owedEnd != plainEnd || owedEnd != 3*ops {
		t.Fatalf("ended at %d owed, %d plain; want %d", owedEnd, plainEnd, 3*ops)
	}
	if plain != procs+2*procs*ops || owed != procs+procs*ops {
		t.Errorf("resumes: %d owed, %d plain; want %d and %d", owed, plain, procs+procs*ops, procs+2*procs*ops)
	}
}
