package psync

import (
	"math/rand"
	"testing"

	"senss/internal/bus"
	"senss/internal/coherence"
	"senss/internal/cpu"
	"senss/internal/mem"
	"senss/internal/sim"
)

// acquireLiteral and waitLiteral are Lock.Acquire and Barrier.Wait with
// the literal Load/Think loop in place of cpu.Port.SpinUntil: the oracle
// the primitives must match.
func acquireLiteral(l *Lock, c *cpu.Port) {
	for !c.CAS(l.addr, 0, 1) {
		for c.Load(l.addr) != 0 {
			c.Think(spinBackoff)
		}
	}
}

func waitLiteral(b *Barrier, c *cpu.Port, ctx *Context) {
	ctx.sense ^= 1
	if int(c.Add(b.count, 1)+1) == b.n {
		c.Store(b.count, 0)
		c.Store(b.sense, ctx.sense)
		return
	}
	for c.Load(b.sense) != ctx.sense {
		c.Think(spinBackoff)
	}
}

// syncOutcome is everything a run of the lock-and-barrier program exposes.
type syncOutcome struct {
	now, seq, resumes uint64
	counter           uint64
	nodes             []coherence.NodeStats
	bus               bus.Stats
}

// runSyncProgram runs procs processors through rounds of random compute,
// a lock-protected counter increment and a barrier every third round,
// with the real primitives or with the literal-loop oracle.
func runSyncProgram(t *testing.T, seed int64, procs int, params cpu.Params, literal bool) syncOutcome {
	t.Helper()
	const lockAddr, counterAddr, barAddr = 0x1000, 0x2000, 0x3000
	e := sim.NewEngine()
	e.SetLimit(100_000_000)
	b := bus.New(e, bus.Timing{
		BusCycle: 10, C2CLat: 120, MemLat: 180, BytesPerBusCycle: 32, LineBytes: 64,
	}, &bus.SimpleMemory{Backing: mem.New()})
	cp := coherence.Params{
		L1Size: 1 << 10, L1Ways: 2, L1Line: 32,
		L2Size: 16 << 10, L2Ways: 4, L2Line: 64,
		L1HitLat: 2, L2HitLat: 10, StoreLat: 2, RMWLat: 4,
	}
	nodes := make([]*coherence.Node, procs)
	for i := range nodes {
		nodes[i] = coherence.NewNode(i, cp, b)
	}
	lock, bar := NewLock(lockAddr), NewBarrier(barAddr, procs)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < procs; i++ {
		think := make([]uint64, 12)
		for k := range think {
			think[k] = uint64(r.Intn(400))
		}
		p := params
		p.CodeBase = 0x40000 + uint64(i)*p.CodeBytes
		cpu.Spawn(e, "cpu", nodes[i], p, func(c *cpu.Port) {
			var ctx Context
			for k, d := range think {
				c.Think(d)
				if literal {
					acquireLiteral(lock, c)
				} else {
					lock.Acquire(c)
				}
				c.Store(counterAddr, c.Load(counterAddr)+1)
				lock.Release(c)
				if k%3 == 2 {
					if literal {
						waitLiteral(bar, c, &ctx)
					} else {
						bar.Wait(c, &ctx)
					}
				}
			}
		}, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out := syncOutcome{now: e.Now(), seq: e.Seq(), resumes: e.Resumes(), bus: b.Stats}
	for _, n := range nodes {
		out.nodes = append(out.nodes, n.Stats)
		if v, ok := n.PeekWord(counterAddr); ok && n.L2.Peek(counterAddr).State.Dirty() {
			out.counter = v
		}
	}
	return out
}

// TestPrimitivesMatchLiteralSpin runs contended locks and barriers on twin
// rigs, one through Lock.Acquire and Barrier.Wait (so SpinUntil) and one
// through the literal spin loop, under random compute and several
// execution models: the clock, the engine's sequence counter, every
// node's and the bus's statistics and the counter must agree, and the
// real primitives must resume procs less often.
func TestPrimitivesMatchLiteralSpin(t *testing.T) {
	models := []cpu.Params{
		{},
		{OpGap: 1, CodeBytes: 2 << 10, IFetchBytes: 4},
		{OpGap: 3, CodeBytes: 512, IFetchBytes: 12},
	}
	for seed := int64(1); seed <= 12; seed++ {
		for mi, params := range models {
			procs := 2 + int(seed)%3
			got := runSyncProgram(t, seed, procs, params, false)
			want := runSyncProgram(t, seed, procs, params, true)
			if got.now != want.now || got.seq != want.seq || got.counter != want.counter {
				t.Fatalf("seed %d model %d: cycle %d seq %d counter %d, literal spin %d %d %d",
					seed, mi, got.now, got.seq, got.counter, want.now, want.seq, want.counter)
			}
			if got.counter != uint64(12*procs) {
				t.Fatalf("seed %d model %d: counter %d, want %d", seed, mi, got.counter, 12*procs)
			}
			for i := range got.nodes {
				if got.nodes[i] != want.nodes[i] {
					t.Fatalf("seed %d model %d: node %d %+v, literal spin %+v", seed, mi, i, got.nodes[i], want.nodes[i])
				}
			}
			if got.bus != want.bus {
				t.Fatalf("seed %d model %d: bus %+v, literal spin %+v", seed, mi, got.bus, want.bus)
			}
			if got.resumes >= want.resumes {
				t.Errorf("seed %d model %d: %d resumes, literal spin %d", seed, mi, got.resumes, want.resumes)
			}
		}
	}
}
