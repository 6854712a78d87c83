package coherence

import (
	"fmt"
	"testing"

	"senss/internal/sim"
)

// tryAddr is the word every Try case probes: a data word for TryLoad and
// TryStore, and an instruction line for FetchHit.
const tryAddr = 0x1000

// tryCases put node 0's copy of tryAddr in one cache state each, behind
// some unrelated traffic so that LRU order and the counters are not
// trivially zero. hits says which steps, in tryOps order, take the op.
var tryCases = []struct {
	name  string
	setup func(p *sim.Proc, n0, n1 *Node)
	hits  [3]bool
}{
	{"miss", func(p *sim.Proc, n0, n1 *Node) {}, [3]bool{false, false, false}},
	{"L1 hit, E", func(p *sim.Proc, n0, n1 *Node) {
		n0.IFetch(p, tryAddr)
		n0.Load(p, tryAddr)
	}, [3]bool{true, true, true}},
	{"L2 hit, E", func(p *sim.Proc, n0, n1 *Node) {
		n0.IFetch(p, tryAddr)
		n0.Load(p, tryAddr)
		n0.L1I.Drop(tryAddr)
		n0.L1D.Drop(tryAddr)
	}, [3]bool{false, true, true}},
	{"L1 hit, M", func(p *sim.Proc, n0, n1 *Node) {
		n0.Store(p, tryAddr, 7)
		n0.Load(p, tryAddr)
	}, [3]bool{false, true, true}},
	{"L2 hit, M", func(p *sim.Proc, n0, n1 *Node) {
		n0.Store(p, tryAddr, 7)
	}, [3]bool{false, true, true}},
	{"L1 hit, S", func(p *sim.Proc, n0, n1 *Node) {
		n1.Load(p, tryAddr)
		n0.Load(p, tryAddr)
	}, [3]bool{false, true, false}},
	{"L2 hit, O", func(p *sim.Proc, n0, n1 *Node) {
		n0.Store(p, tryAddr, 7)
		n1.Load(p, tryAddr)
	}, [3]bool{false, true, false}},
	{"invalidated", func(p *sim.Proc, n0, n1 *Node) {
		n0.IFetch(p, tryAddr)
		n0.Load(p, tryAddr)
		n1.Store(p, tryAddr, 9)
	}, [3]bool{false, false, false}},
}

// tryOps pairs each Try step with the blocking op whose hit it is. try
// reports whether it took the op and the latency the caller then owes;
// blocking runs the op and takes that latency.
var tryOps = []struct {
	name     string
	try      func(n *Node) (v, lat uint64, ok bool)
	blocking func(p *sim.Proc, n *Node) uint64
}{
	{"FetchHit",
		func(n *Node) (uint64, uint64, bool) { return 0, 0, n.FetchHit(tryAddr) },
		func(p *sim.Proc, n *Node) uint64 { n.IFetch(p, tryAddr); return 0 }},
	{"TryLoad",
		func(n *Node) (uint64, uint64, bool) { return n.TryLoad(tryAddr) },
		func(p *sim.Proc, n *Node) uint64 { return n.Load(p, tryAddr) }},
	{"TryStore",
		func(n *Node) (uint64, uint64, bool) {
			return 0, n.Params.StoreLat, n.TryStore(tryAddr, 42)
		},
		func(p *sim.Proc, n *Node) uint64 { n.Store(p, tryAddr, 42); return 0 }},
}

// nodeSnapshot renders every node's counters and every cache in full —
// line states, tags, payloads, LRU stamps, hit and miss counts.
func nodeSnapshot(s *system) string {
	var out string
	for _, n := range s.nodes {
		out += fmt.Sprintf("%+v\nL1I %+v\nL1D %+v\nL2 %+v\n", n.Stats, *n.L1I, *n.L1D, *n.L2)
	}
	return out
}

// tryRig builds a two-node system, plays the warm-up traffic and case c's
// setup on one proc, settles it, and then runs body on that proc.
func tryRig(t *testing.T, c int, body func(p *sim.Proc, s *system)) *system {
	t.Helper()
	s := newSystem(t, 2, 1024)
	s.engine.Spawn("p", func(p *sim.Proc) {
		n0, n1 := s.nodes[0], s.nodes[1]
		n0.Load(p, 0x2000)
		n0.Store(p, 0x3000, 1)
		n0.IFetch(p, 0x4000)
		n1.Load(p, 0x2040)
		tryCases[c].setup(p, n0, n1)
		n0.Load(p, 0x2000)
		p.Settle()
		body(p, s)
	})
	s.run(t)
	return s
}

// TestTryStepsMatchBlockingOps pins the contract of FetchHit, TryLoad and
// TryStore in every cache state: a miss touches nothing at all, and a hit
// does exactly the bookkeeping of the blocking op it stands for and
// returns the word and latency that op would.
func TestTryStepsMatchBlockingOps(t *testing.T) {
	for c, tc := range tryCases {
		for o, op := range tryOps {
			t.Run(tc.name+"/"+op.name, func(t *testing.T) {
				var (
					v, lat  uint64
					ok      bool
					before  string
					wantV   uint64
					elapsed uint64
				)
				tried := tryRig(t, c, func(p *sim.Proc, s *system) {
					before = nodeSnapshot(s)
					v, lat, ok = op.try(s.nodes[0])
				})
				blocked := tryRig(t, c, func(p *sim.Proc, s *system) {
					t0 := p.Now()
					wantV = op.blocking(p, s.nodes[0])
					p.Settle()
					elapsed = p.Now() - t0
				})
				if want := tc.hits[o]; ok != want {
					t.Fatalf("took the op: %v, want %v", ok, want)
				}
				after := nodeSnapshot(tried)
				if !ok {
					if after != before {
						t.Errorf("a miss changed node state:\nbefore %s\nafter  %s", before, after)
					}
					return
				}
				if want := nodeSnapshot(blocked); after != want {
					t.Errorf("hit bookkeeping differs from the blocking op:\ntry      %s\nblocking %s", after, want)
				}
				if v != wantV || lat != elapsed {
					t.Errorf("returned word %#x owing %d cycles, blocking op read %#x in %d", v, lat, wantV, elapsed)
				}
			})
		}
	}
}
