package cpu

import (
	"math/rand"
	"testing"

	"senss/internal/bus"
	"senss/internal/coherence"
	"senss/internal/sim"
)

// Addresses of the batch rig. shared lines are also read and written by
// a second processor, so the player's copies go Shared, Owned or away
// between its ops; private lines are the player's alone, so its first
// load of one installs it Exclusive. Each line has conflict addresses in
// its L1 and L2 sets, whose loads evict it.
const (
	batchShared  = 0x1000
	batchPrivate = 0x3400
	batchReady   = 0x2800   // the writer stores 1 here once; the player may spin on it
	batchLines   = 3        // lines of each kind
	batchStride  = 16 << 10 // a multiple of both way sizes: same L1 and L2 set
)

// batchKind is one op of a batch script.
type batchKind uint8

const (
	kStore batchKind = iota
	kLoad
	kLoadN
	kAdd
	kCAS
	kSpinReady // spin until the writer's ready store lands
	kSpinOwn   // store a word, then spin until it reads back
	kThink
	kNow
)

type batchOp struct {
	kind    batchKind
	addrs   []uint64
	a, b, n uint64 // store/Add/CAS operands, spin backoff, think cycles
}

// batchScript is one fuzzed program for the player and its surroundings:
// the execution model, the player's ops, the writer's traffic on the
// shared lines, and the cycles at which a scheduler closes the player's
// gate.
type batchScript struct {
	player Params
	gated  bool
	ops    []batchOp
	writer []batchOp // kStore and kLoad on shared words, each after a kThink
	ready  int       // the writer's step that stores batchReady
	closes []uint64  // gate closures: cycles before each, then as long closed
}

// batchAddr draws a word of a shared or private line, or one of a
// line's conflict addresses.
func batchAddr(r *rand.Rand) uint64 {
	base := uint64(batchShared)
	if r.Intn(2) == 0 {
		base = batchPrivate
	}
	return conflict(r, base+uint64(r.Intn(batchLines))*64+uint64(r.Intn(8))*8)
}

// conflict returns a, or now and then one of a's conflict addresses.
func conflict(r *rand.Rand, a uint64) uint64 {
	if r.Intn(4) == 0 {
		a += uint64(1+r.Intn(4)) * batchStride
	}
	return a
}

func newBatchScript(r *rand.Rand) batchScript {
	s := batchScript{
		player: Params{OpGap: []uint64{0, 1, 3}[r.Intn(3)]},
		gated:  r.Intn(2) == 0,
	}
	if r.Intn(3) > 0 {
		// Text that fits the 1 KiB L1I, or is four times larger, so
		// that every line crossing misses.
		s.player.CodeBase, s.player.CodeBytes = 0x40000, []uint64{512, 4 << 10}[r.Intn(2)]
		s.player.IFetchBytes = []uint64{4, 12, 32}[r.Intn(3)]
	}
	burst := func() int {
		if r.Intn(8) == 0 {
			return 1 + r.Intn(2*batchCap) // overflows the queue
		}
		return 1 + r.Intn(6)
	}
	spun := false
	for i := 30 + r.Intn(120); i > 0; i-- {
		var op batchOp
		switch k := r.Intn(20); {
		case k < 7:
			for j := burst(); j > 0; j-- {
				s.ops = append(s.ops, batchOp{kind: kStore, addrs: []uint64{batchAddr(r)}, a: uint64(r.Intn(1000))})
			}
			continue
		case k < 11:
			op.kind = kLoadN
			for j := burst(); j > 0; j-- {
				op.addrs = append(op.addrs, batchAddr(r))
			}
		case k < 13:
			op = batchOp{kind: kLoad, addrs: []uint64{batchAddr(r)}}
		case k < 14:
			op = batchOp{kind: kAdd, addrs: []uint64{batchAddr(r)}, a: uint64(1 + r.Intn(3))}
		case k < 15:
			op = batchOp{kind: kCAS, addrs: []uint64{batchAddr(r)}, a: uint64(r.Intn(2)), b: uint64(r.Intn(1000))}
		case k < 16:
			// A word no other processor writes, so the spin ends.
			a := conflict(r, batchPrivate+uint64(r.Intn(batchLines))*64+uint64(r.Intn(8))*8)
			op = batchOp{kind: kSpinOwn, addrs: []uint64{a}, a: uint64(r.Intn(1000)), n: uint64(r.Intn(12))}
		case k < 17 && !spun:
			spun = true
			op = batchOp{kind: kSpinReady, addrs: []uint64{batchReady}, n: uint64(r.Intn(12))}
		case k < 19:
			op = batchOp{kind: kThink, n: uint64(r.Intn(4) * r.Intn(60))}
		default:
			op = batchOp{kind: kNow}
		}
		s.ops = append(s.ops, op)
	}
	for j := burst(); j > 0; j-- { // stores still queued at the program's return
		s.ops = append(s.ops, batchOp{kind: kStore, addrs: []uint64{batchAddr(r)}, a: uint64(r.Intn(1000))})
	}
	steps := 5 + r.Intn(40)
	s.ready = r.Intn(steps)
	for i := 0; i < steps; i++ {
		s.writer = append(s.writer, batchOp{kind: kThink, n: uint64(r.Intn(400))})
		a := uint64(batchShared) + uint64(r.Intn(batchLines))*64 + uint64(r.Intn(8))*8
		if r.Intn(2) == 0 {
			s.writer = append(s.writer, batchOp{kind: kStore, addrs: []uint64{a}, a: uint64(r.Intn(1000))})
		} else {
			s.writer = append(s.writer, batchOp{kind: kLoad, addrs: []uint64{a}})
		}
	}
	if s.gated {
		for i := 1 + r.Intn(8); i > 0; i-- {
			s.closes = append(s.closes, uint64(1+r.Intn(800)), uint64(1+r.Intn(300)))
		}
	}
	return s
}

// batchOutcome is everything a run of the script exposes.
type batchOutcome struct {
	values  []uint64 // every value the player read, and every Now
	exit    uint64   // the cycle the player's exit hook ran
	now     uint64
	seq     uint64
	resumes uint64
	nodes   []coherence.NodeStats
	caches  [][3][3]uint64 // per node: L1I, L1D, L2 hits, misses and evictions
	bus     bus.Stats
}

// batchPort plays ops through the Port or, for the literal oracle, one
// blocking call per op: Store and Load step and then call the node, as
// the Port did before it queued ops, and SpinUntil is the literal loop.
// Add, CAS, Think and Now are the Port's own, which with nothing queued
// are exactly their literal calls.
type batchPort struct {
	c       *Port
	literal bool
}

func (p batchPort) store(addr, val uint64) {
	if p.literal {
		p.c.step()
		p.c.node.Store(p.c.proc, addr, val)
		return
	}
	p.c.Store(addr, val)
}

func (p batchPort) load(addr uint64) uint64 {
	if p.literal {
		p.c.step()
		return p.c.node.Load(p.c.proc, addr)
	}
	return p.c.Load(addr)
}

func (p batchPort) loadN(addrs, out []uint64) {
	if p.literal {
		for i := range addrs {
			out[i] = p.load(addrs[i])
		}
		return
	}
	p.c.LoadN(addrs, out)
}

func (p batchPort) spin(addr, want, backoff uint64) {
	if p.literal {
		for p.load(addr) != want {
			p.c.Think(backoff)
		}
		return
	}
	p.c.SpinUntil(addr, want, backoff)
}

// runBatchScript plays s on a fresh three-node rig, through the Port or
// the literal per-op calls.
func runBatchScript(t *testing.T, s batchScript, literal bool) batchOutcome {
	t.Helper()
	e, b, nodes := newRig(3)
	e.SetLimit(50_000_000)

	var out batchOutcome
	gate := &Gate{}
	player := s.player
	if s.gated {
		player.Gate = gate
	}
	playerDone := false
	Spawn(e, "player", nodes[0], player, func(c *Port) {
		p := batchPort{c: c, literal: literal}
		var buf [2 * batchCap]uint64
		for _, op := range s.ops {
			switch op.kind {
			case kStore:
				p.store(op.addrs[0], op.a)
			case kLoad:
				out.values = append(out.values, p.load(op.addrs[0]))
			case kLoadN:
				got := buf[:len(op.addrs)]
				p.loadN(op.addrs, got)
				out.values = append(out.values, got...)
			case kAdd:
				out.values = append(out.values, c.Add(op.addrs[0], op.a))
			case kCAS:
				ok := uint64(0)
				if c.CAS(op.addrs[0], op.a, op.b) {
					ok = 1
				}
				out.values = append(out.values, ok)
			case kSpinReady:
				p.spin(op.addrs[0], 1, op.n)
			case kSpinOwn:
				p.store(op.addrs[0], op.a)
				p.spin(op.addrs[0], op.a, op.n)
			case kThink:
				c.Think(op.n)
			case kNow:
				out.values = append(out.values, c.Now())
			}
		}
	}, func() {
		out.exit = e.Now()
		playerDone = true
		gate.NoteExit(e)
	})
	Spawn(e, "writer", nodes[1], Params{OpGap: 1}, func(c *Port) {
		p := batchPort{c: c, literal: literal}
		for i, op := range s.writer {
			switch op.kind {
			case kThink:
				c.Think(op.n)
			case kStore:
				p.store(op.addrs[0], op.a)
			case kLoad:
				p.load(op.addrs[0])
			}
			if i/2 == s.ready && op.kind != kThink {
				p.store(batchReady, 1)
			}
		}
	}, nil)
	// A reader on the third node keeps shared lines Shared or Owned.
	Spawn(e, "reader", nodes[2], Params{OpGap: 3}, func(c *Port) {
		p := batchPort{c: c, literal: literal}
		for i := 0; i < 40; i++ {
			c.Think(150)
			p.load(batchShared + uint64(i%batchLines)*64)
		}
	}, nil)
	if s.gated {
		e.Spawn("scheduler", func(p *sim.Proc) {
			for i := 0; i+1 < len(s.closes); i += 2 {
				p.Sleep(s.closes[i])
				gate.Close()
				gate.WaitQuiesce(p, func() int {
					if playerDone {
						return 0
					}
					return 1
				})
				p.Sleep(s.closes[i+1])
				gate.Open(e)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out.now, out.seq, out.resumes, out.bus = e.Now(), e.Seq(), e.Resumes(), b.Stats
	for _, n := range nodes {
		out.nodes = append(out.nodes, n.Stats)
		out.caches = append(out.caches, [3][3]uint64{
			{n.L1I.Hits, n.L1I.Misses, n.L1I.Evictions},
			{n.L1D.Hits, n.L1D.Misses, n.L1D.Evictions},
			{n.L2.Hits, n.L2.Misses, n.L2.Evictions},
		})
	}
	return out
}

// TestBatchMatchesLiteralOps runs fuzzed programs of LoadN, Store, Load,
// Add, CAS, SpinUntil, Think and Now through the write-behind Port and
// through one blocking call per op on twin rigs. Two other processors
// read and write the player's shared lines at random cycles, so batches
// meet L1 misses, stores to Shared or Owned lines (upgrades) and store
// misses in their middle; conflict loads evict lines between batches;
// a time-sharing gate closes at random cycles; fetches cross L1I lines
// that fit or overflow the L1I; OpGap is 0, 1 or 3; and every program
// returns with stores queued. Every value read, the exit cycle, the
// node, cache and bus statistics, the final clock and the engine's
// sequence counter must match, with no more coroutine resumes. (The rig
// is miss-bound, so the saving here is small; TestGoldenBatchResumes
// pins it on the kernels.)
func TestBatchMatchesLiteralOps(t *testing.T) {
	var plainResumes, batchResumes uint64
	for seed := int64(1); seed <= 150; seed++ {
		s := newBatchScript(rand.New(rand.NewSource(seed)))
		got, want := runBatchScript(t, s, false), runBatchScript(t, s, true)
		if len(got.values) != len(want.values) {
			t.Fatalf("seed %d: %d values read, literal ops %d", seed, len(got.values), len(want.values))
		}
		for i := range got.values {
			if got.values[i] != want.values[i] {
				t.Fatalf("seed %d: value %d is %d, literal ops %d", seed, i, got.values[i], want.values[i])
			}
		}
		if got.exit != want.exit || got.now != want.now || got.seq != want.seq {
			t.Fatalf("seed %d: exit at cycle %d, ended at cycle %d seq %d; literal ops %d, %d, %d",
				seed, got.exit, got.now, got.seq, want.exit, want.now, want.seq)
		}
		for i := range got.nodes {
			if got.nodes[i] != want.nodes[i] || got.caches[i] != want.caches[i] {
				t.Fatalf("seed %d: node %d stats %+v caches %v, literal ops %+v %v",
					seed, i, got.nodes[i], got.caches[i], want.nodes[i], want.caches[i])
			}
		}
		if got.bus != want.bus {
			t.Fatalf("seed %d: bus stats %+v, literal ops %+v", seed, got.bus, want.bus)
		}
		if got.resumes > want.resumes {
			t.Fatalf("seed %d: %d resumes, literal ops %d", seed, got.resumes, want.resumes)
		}
		batchResumes += got.resumes
		plainResumes += want.resumes
	}
	if batchResumes >= plainResumes {
		t.Errorf("the Port resumed procs %d times, literal ops %d: want fewer", batchResumes, plainResumes)
	}
}
