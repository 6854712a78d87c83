package bus

import (
	"fmt"
	"math/rand"
	"testing"

	"senss/internal/mem"
	"senss/internal/sim"
)

// literalTransact is Transact with its tail taken by the proc itself:
// hold the bus through the stall and occupancy, release it, then sleep
// out the rest of the latency — one resume per sleep.
func literalTransact(b *Bus, p *sim.Proc, t *Transaction) {
	busy, rest := b.hold(p, t)
	p.Sleep(busy)
	b.arbiter.Unlock(p)
	if rest > 0 {
		p.Sleep(rest)
	}
}

// tenureScript is one fuzzed contention schedule: the bus timing, the
// per-proc transactions, and the security stall each one draws.
type tenureScript struct {
	timing Timing
	procs  [][]tenureOp
	slices []uint64 // RunUntil slice lengths, cycled
}

// tenureOp is one transaction and the think time before it.
type tenureOp struct {
	kind   Kind
	addr   uint64
	extra  uint64 // cycles the hook charges while the bus is held
	think  uint64 // cycles slept before requesting the bus
	owed   bool   // the think time is owed, not slept
	cached bool   // a cache supplies the line (Rd/RdX): C2CLat, not MemLat
}

func newTenureScript(r *rand.Rand) tenureScript {
	bpc := []int{8, 16, 32, 64}[r.Intn(4)]
	s := tenureScript{timing: Timing{
		BusCycle: 1 + uint64(r.Intn(8)), BytesPerBusCycle: bpc, LineBytes: 64,
		// Latencies from below the occupancy (no tail after the
		// release) to past the wheel window.
		C2CLat: uint64(r.Intn(100)), MemLat: uint64(r.Intn(220)),
	}}
	kinds := []Kind{Rd, RdX, Upgr, WB, Auth, PadInv, PadReq, PadUpd}
	for i := 2 + r.Intn(4); i > 0; i-- {
		ops := make([]tenureOp, 1+r.Intn(30))
		for k := range ops {
			op := tenureOp{
				kind: kinds[r.Intn(len(kinds))], addr: uint64(r.Intn(8)) * 64,
				think: uint64(r.Intn(3)) * uint64(r.Intn(40)), owed: r.Intn(3) == 0,
				cached: r.Intn(2) == 0,
			}
			if r.Intn(3) == 0 {
				op.extra = uint64(r.Intn(90))
			}
			ops[k] = op
		}
		s.procs = append(s.procs, ops)
	}
	for i := 1 + r.Intn(3); i > 0; i-- {
		s.slices = append(s.slices, 1+uint64(r.Intn(150)))
	}
	return s
}

// scriptedSide is the twin rigs' snooper and hook: a Rd/RdX marked
// cached is supplied by a cache, and each transaction's hook charges
// its scripted stall.
type scriptedSide struct{ cur *tenureOp }

func (s *scriptedSide) SnoopBus(t *Transaction) {
	if (t.Kind == Rd || t.Kind == RdX) && s.cur.cached {
		t.SupplierID = 99
	}
}

func (s *scriptedSide) OnTransaction(p *sim.Proc, t *Transaction) uint64 { return s.cur.extra }

// tenureOutcome is everything a twin run exposes.
type tenureOutcome struct {
	done    []string // "proc/op@cycle", in completion order
	stats   Stats
	now     uint64
	seq     uint64
	resumes uint64
}

// runTenureScript plays s on a fresh engine with Transact's continuation
// tail (cont) or with the literal sleeps.
func runTenureScript(t *testing.T, s tenureScript, cont bool) tenureOutcome {
	e := sim.NewEngine()
	b := New(e, s.timing, &SimpleMemory{Backing: mem.New()})
	side := &scriptedSide{}
	b.AttachSnooper(side)
	b.AttachHook(side)
	var out tenureOutcome
	for i, ops := range s.procs {
		e.Spawn(fmt.Sprint("p", i), func(p *sim.Proc) {
			for k := range ops {
				op := &ops[k]
				if op.owed {
					p.Owe(op.think)
				} else {
					p.Sleep(op.think)
				}
				p.Settle()
				// A WB's line was committed at its evicting fill.
				tx := &Transaction{Kind: op.kind, Addr: op.addr, Src: i, Committed: op.kind == WB}
				// The snooper and hook read the op of the proc that holds
				// the bus; set it at the grant.
				tx.PreSnoop = func(*Transaction) { side.cur = op }
				if cont {
					b.Transact(p, tx)
				} else {
					literalTransact(b, p, tx)
				}
				out.done = append(out.done, fmt.Sprintf("%d/%d@%d", i, k, e.Now()))
			}
		})
	}
	for n := 0; ; n++ {
		done, err := e.RunUntil(e.Now() + s.slices[n%len(s.slices)])
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	out.stats, out.now, out.seq, out.resumes = b.Stats, e.Now(), e.Seq(), e.Resumes()
	return out
}

// TestTenureMatchesLiteralSleeps is the exactness property of Transact's
// continuation tail: contending procs issuing random kinds with random
// security stalls, think times (some owed) and latencies — including
// ones at or below the occupancy, which leave no tail after the
// release — complete every transaction at the same cycle, in the same
// order, with the same bus and arbitration statistics and the same
// engine sequence count as twin rigs whose procs sleep each leg and
// release the bus themselves, across random RunUntil slices.
func TestTenureMatchesLiteralSleeps(t *testing.T) {
	var contResumes, litResumes uint64
	for seed := int64(1); seed <= 300; seed++ {
		s := newTenureScript(rand.New(rand.NewSource(seed)))
		got, want := runTenureScript(t, s, true), runTenureScript(t, s, false)
		if fmt.Sprint(got.done) != fmt.Sprint(want.done) {
			t.Fatalf("seed %d: completions\n got %v\nwant %v", seed, got.done, want.done)
		}
		if got.stats != want.stats || got.now != want.now || got.seq != want.seq {
			t.Fatalf("seed %d: ended with stats %+v now %d seq %d, literal %+v now %d seq %d",
				seed, got.stats, got.now, got.seq, want.stats, want.now, want.seq)
		}
		if got.resumes > want.resumes {
			t.Fatalf("seed %d: %d resumes, literal %d", seed, got.resumes, want.resumes)
		}
		contResumes += got.resumes
		litResumes += want.resumes
	}
	if contResumes >= litResumes {
		t.Errorf("continuation tail saved no resume: %d against %d literal", contResumes, litResumes)
	}
}
