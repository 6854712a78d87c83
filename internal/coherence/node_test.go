package coherence

import (
	"testing"

	"senss/internal/bus"
	"senss/internal/cache"
	"senss/internal/mem"
	"senss/internal/rng"
	"senss/internal/sim"
)

func testParams(l2Size int) Params {
	return Params{
		L1Size: 256, L1Ways: 2, L1Line: 32,
		L2Size: l2Size, L2Ways: 4, L2Line: 64,
		L1HitLat: 2, L2HitLat: 10, StoreLat: 2, RMWLat: 4,
	}
}

func testTiming() bus.Timing {
	return bus.Timing{BusCycle: 10, C2CLat: 120, MemLat: 180, BytesPerBusCycle: 32, LineBytes: 64}
}

type system struct {
	engine *sim.Engine
	store  *mem.Store
	bus    *bus.Bus
	nodes  []*Node
}

func newSystem(t *testing.T, procs, l2Size int) *system {
	t.Helper()
	s := &system{engine: sim.NewEngine(), store: mem.New()}
	s.bus = bus.New(s.engine, testTiming(), &bus.SimpleMemory{Backing: s.store})
	for i := 0; i < procs; i++ {
		s.nodes = append(s.nodes, NewNode(i, testParams(l2Size), s.bus))
	}
	s.engine.SetLimit(200_000_000)
	return s
}

func (s *system) run(t *testing.T) {
	t.Helper()
	if err := s.engine.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func (s *system) check(t *testing.T) {
	t.Helper()
	reader := func(addr uint64, dst []byte) { s.store.ReadLine(addr, dst) }
	if err := CheckInvariants(s.nodes, reader); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestLoadReturnsMemoryValue(t *testing.T) {
	s := newSystem(t, 1, 1024)
	s.store.WriteWord(0x100, 0xdeadbeef)
	var got uint64
	s.engine.Spawn("p0", func(p *sim.Proc) {
		got = s.nodes[0].Load(p, 0x100)
	})
	s.run(t)
	if got != 0xdeadbeef {
		t.Errorf("Load = %#x", got)
	}
	s.check(t)
}

func TestStoreLoadRoundTrip(t *testing.T) {
	s := newSystem(t, 1, 1024)
	s.engine.Spawn("p0", func(p *sim.Proc) {
		n := s.nodes[0]
		n.Store(p, 0x200, 42)
		n.Store(p, 0x208, 43)
		if v := n.Load(p, 0x200); v != 42 {
			t.Errorf("load after store = %d", v)
		}
		if v := n.Load(p, 0x208); v != 43 {
			t.Errorf("second word = %d", v)
		}
	})
	s.run(t)
	s.check(t)
}

func TestProducerConsumerCacheToCache(t *testing.T) {
	s := newSystem(t, 2, 1024)
	var got uint64
	s.engine.Spawn("producer", func(p *sim.Proc) {
		s.nodes[0].Store(p, 0x300, 77)
	})
	s.engine.Spawn("consumer", func(p *sim.Proc) {
		p.Sleep(2000) // let the producer finish
		got = s.nodes[1].Load(p, 0x300)
	})
	s.run(t)
	if got != 77 {
		t.Errorf("consumer read %d, want 77", got)
	}
	if s.bus.Stats.C2CCount == 0 {
		t.Error("expected a cache-to-cache supply from the M holder")
	}
	// Producer should now hold the line Owned (dirty shared), consumer S.
	if l := s.nodes[0].L2.Peek(0x300); l == nil || l.State != cache.Owned {
		t.Errorf("producer line state = %v, want O", l)
	}
	if l := s.nodes[1].L2.Peek(0x300); l == nil || l.State != cache.Shared {
		t.Errorf("consumer line state = %v, want S", l)
	}
	s.check(t)
}

func TestWriteInvalidatesOtherCopies(t *testing.T) {
	s := newSystem(t, 2, 1024)
	s.engine.Spawn("a", func(p *sim.Proc) {
		s.nodes[0].Store(p, 0x400, 1)
		p.Sleep(5000)
		if v := s.nodes[0].Load(p, 0x400); v != 2 {
			t.Errorf("a reloaded %d, want 2", v)
		}
	})
	s.engine.Spawn("b", func(p *sim.Proc) {
		p.Sleep(1000)
		s.nodes[1].Store(p, 0x400, 2)
	})
	s.run(t)
	s.check(t)
}

func TestExclusiveStateOnSoleReader(t *testing.T) {
	s := newSystem(t, 2, 1024)
	s.engine.Spawn("a", func(p *sim.Proc) {
		s.nodes[0].Load(p, 0x500)
		if l := s.nodes[0].L2.Peek(0x500); l == nil || l.State != cache.Exclusive {
			t.Errorf("sole reader state = %v, want E", l)
		}
	})
	s.run(t)

	// A second reader demotes E to S on both sides.
	s2 := newSystem(t, 2, 1024)
	s2.engine.Spawn("a", func(p *sim.Proc) { s2.nodes[0].Load(p, 0x500) })
	s2.engine.Spawn("b", func(p *sim.Proc) {
		p.Sleep(2000)
		s2.nodes[1].Load(p, 0x500)
	})
	s2.run(t)
	for i, n := range s2.nodes {
		if l := n.L2.Peek(0x500); l == nil || l.State != cache.Shared {
			t.Errorf("node %d state = %v, want S", i, l)
		}
	}
	s2.check(t)
}

func TestSilentStoreUpgradeFromShared(t *testing.T) {
	s := newSystem(t, 2, 1024)
	s.engine.Spawn("a", func(p *sim.Proc) {
		s.nodes[0].Load(p, 0x600) // S after b also reads
		p.Sleep(4000)
		s.nodes[0].Store(p, 0x600, 9) // Upgr path
	})
	s.engine.Spawn("b", func(p *sim.Proc) {
		p.Sleep(2000)
		s.nodes[1].Load(p, 0x600)
	})
	s.run(t)
	if s.bus.Stats.Count[bus.Upgr] == 0 {
		t.Error("expected a BusUpgr transaction")
	}
	if l := s.nodes[1].L2.Peek(0x600); l != nil {
		t.Errorf("b still holds invalidated line in %v", l.State)
	}
	s.check(t)
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s := newSystem(t, 1, 512) // 512B L2, 4 ways, 64B lines: 8 lines, 2 sets
	const stride = 64 * 2     // same set every time
	s.engine.Spawn("a", func(p *sim.Proc) {
		n := s.nodes[0]
		for i := uint64(0); i < 8; i++ { // 8 lines into a 4-way set: 4 evictions
			n.Store(p, 0x1000+i*stride, 100+i)
		}
	})
	s.run(t)
	if s.bus.Stats.Count[bus.WB] == 0 {
		t.Fatal("expected writebacks")
	}
	for i := uint64(0); i < 8; i++ {
		addr := 0x1000 + i*stride
		want := 100 + i
		if l := s.nodes[0].L2.Peek(addr); l != nil {
			if v, _ := s.nodes[0].PeekWord(addr); v != want {
				t.Errorf("cached %#x = %d, want %d", addr, v, want)
			}
		} else if v := s.store.ReadWord(addr); v != want {
			t.Errorf("memory %#x = %d, want %d", addr, v, want)
		}
	}
	s.check(t)
}

func TestRMWAtomicCounter(t *testing.T) {
	const procs, per = 4, 200
	s := newSystem(t, procs, 1024)
	const counter = 0x2000
	for i := 0; i < procs; i++ {
		n := s.nodes[i]
		s.engine.Spawn("inc", func(p *sim.Proc) {
			for k := 0; k < per; k++ {
				n.RMW(p, counter, func(v uint64) uint64 { return v + 1 })
			}
		})
	}
	s.run(t)
	var final uint64
	found := false
	for _, n := range s.nodes {
		if v, ok := n.PeekWord(counter); ok {
			final, found = v, true
			break
		}
	}
	if !found {
		final = s.store.ReadWord(counter)
	}
	if final != procs*per {
		t.Errorf("counter = %d, want %d", final, procs*per)
	}
	s.check(t)
}

func TestFalseSharingBothWordsSurvive(t *testing.T) {
	s := newSystem(t, 2, 1024)
	const line = 0x3000
	s.engine.Spawn("a", func(p *sim.Proc) {
		for i := uint64(0); i < 50; i++ {
			s.nodes[0].Store(p, line, i)
		}
	})
	s.engine.Spawn("b", func(p *sim.Proc) {
		for i := uint64(0); i < 50; i++ {
			s.nodes[1].Store(p, line+8, 1000+i)
		}
	})
	s.run(t)
	read := func(addr uint64) uint64 {
		for _, n := range s.nodes {
			if v, ok := n.PeekWord(addr); ok {
				return v
			}
		}
		return s.store.ReadWord(addr)
	}
	if v := read(line); v != 49 {
		t.Errorf("word0 = %d, want 49", v)
	}
	if v := read(line + 8); v != 1049 {
		t.Errorf("word1 = %d, want 1049", v)
	}
	s.check(t)
}

func TestIFetchWarmsICache(t *testing.T) {
	s := newSystem(t, 1, 1024)
	s.engine.Spawn("a", func(p *sim.Proc) {
		n := s.nodes[0]
		n.IFetch(p, 0x4000)
		before := n.L1I.Misses
		n.IFetch(p, 0x4000)
		if n.L1I.Misses != before {
			t.Error("second IFetch missed L1I")
		}
	})
	s.run(t)
	s.check(t)
}

// TestRandomStressInvariants drives random loads/stores/RMWs from 4 nodes
// over a small line pool (high contention) and checks the MOESI invariants
// at the end, plus determinism across two identical runs.
func TestRandomStressInvariants(t *testing.T) {
	runOnce := func() (uint64, *system) {
		s := newSystem(t, 4, 512)
		for i := 0; i < 4; i++ {
			n := s.nodes[i]
			r := rng.New(uint64(1000 + i))
			s.engine.Spawn("stress", func(p *sim.Proc) {
				for k := 0; k < 2000; k++ {
					addr := uint64(0x8000) + uint64(r.Intn(32))*8 // 4 lines, word-grain
					switch r.Intn(3) {
					case 0:
						n.Load(p, addr)
					case 1:
						n.Store(p, addr, r.Uint64())
					case 2:
						n.RMW(p, addr, func(v uint64) uint64 { return v ^ 1 })
					}
				}
			})
		}
		if err := s.engine.Run(); err != nil {
			t.Fatalf("engine: %v", err)
		}
		return s.engine.Now(), s
	}
	c1, s1 := runOnce()
	s1.check(t)
	c2, _ := runOnce()
	if c1 != c2 {
		t.Errorf("nondeterministic: %d vs %d cycles", c1, c2)
	}
	if s1.bus.Stats.C2CCount == 0 {
		t.Error("stress produced no cache-to-cache transfers")
	}
}

// TestUpgradeRaceRecovery forces the A-upgrades-while-B-steals interleaving
// through high contention and verifies the machine survives with correct
// invariants (the UpgrRaces counter is best-effort; the data race itself is
// what must stay safe).
func TestUpgradeRaceRecovery(t *testing.T) {
	s := newSystem(t, 4, 1024)
	const addr = 0x9000
	for i := 0; i < 4; i++ {
		n := s.nodes[i]
		s.engine.Spawn("racer", func(p *sim.Proc) {
			for k := 0; k < 500; k++ {
				n.Load(p, addr)             // pull the line to S
				n.Store(p, addr, uint64(k)) // upgrade (racing with 3 others)
			}
		})
	}
	s.run(t)
	s.check(t)
}

// TestLoadTakesOwedStoreLatency calls Store and then Load on a node with
// no CPU port in between. Another node's RdX snoops the line away one
// cycle into the store's owed latency, so the load must take that latency
// before probing: it misses and reads the other node's value, at the
// cycle plain sleeps give.
func TestLoadTakesOwedStoreLatency(t *testing.T) {
	s := newSystem(t, 2, 1024)
	const addr = 0x500
	var got, missesBefore, missesAfter, doneAt uint64
	s.engine.Spawn("a", func(p *sim.Proc) {
		n := s.nodes[0]
		n.Load(p, addr) // line arrives Exclusive, so the store is a hit
		s.engine.Schedule(p.Now()+1, func() {
			s.engine.Spawn("b", func(p *sim.Proc) { s.nodes[1].Store(p, addr, 2) })
		})
		n.Store(p, addr, 1)
		missesBefore = n.L2.Misses
		got = n.Load(p, addr)
		missesAfter = n.L2.Misses
		doneAt = p.Now()
	})
	s.run(t)
	s.check(t)
	if got != 2 || missesAfter != missesBefore+1 {
		t.Errorf("load read %d with %d L2 misses, want 2 with 1", got, missesAfter-missesBefore)
	}
	if doneAt != 345 {
		t.Errorf("load completed at cycle %d, want 345", doneAt)
	}
}
