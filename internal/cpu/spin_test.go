package cpu

import (
	"math/rand"
	"testing"

	"senss/internal/bus"
	"senss/internal/coherence"
	"senss/internal/sim"
)

// spinLoop is the loop SpinUntil must reproduce, kept as its test oracle.
func spinLoop(c *Port, addr, want, backoff uint64) {
	for c.Load(addr) != want {
		c.Think(backoff)
	}
}

// spinScript is one fuzzed spin-wait scenario: a spinner waits for a
// writer's values under a random execution model, while the writer
// dirties the spin line, the spinner evicts it between waits, and a
// scheduler may close the spinner's gate at random cycles.
type spinScript struct {
	spinner  Params
	gated    bool
	rounds   int
	backoff  []uint64 // per round
	again    []bool   // per round: spin once more on the value just seen
	evict    []int    // per round: conflicting loads before the wait
	writerGo []uint64 // per round: cycles before the writer's store
	falseSh  []int    // per round: stores to the spin line's other word
	closes   []uint64 // gate closures: cycles before each, then as long closed
}

func newSpinScript(r *rand.Rand) spinScript {
	s := spinScript{
		spinner: Params{OpGap: []uint64{0, 1, 3}[r.Intn(3)]},
		gated:   r.Intn(2) == 0,
		rounds:  1 + r.Intn(12),
	}
	if r.Intn(3) > 0 {
		// Text that fits the 1 KiB L1I, or is four times larger, so
		// that every line crossing misses.
		s.spinner.CodeBase, s.spinner.CodeBytes = 0x40000, []uint64{512, 4 << 10}[r.Intn(2)]
		s.spinner.IFetchBytes = []uint64{4, 12, 32}[r.Intn(3)]
	}
	for i := 0; i < s.rounds; i++ {
		s.backoff = append(s.backoff, []uint64{0, 1, 10, 37}[r.Intn(4)])
		s.again = append(s.again, r.Intn(4) == 0)
		s.evict = append(s.evict, r.Intn(3)*r.Intn(3))
		s.writerGo = append(s.writerGo, uint64(r.Intn(3000)))
		s.falseSh = append(s.falseSh, r.Intn(3))
	}
	if s.gated {
		for i := 1 + r.Intn(6); i > 0; i-- {
			s.closes = append(s.closes, uint64(1+r.Intn(500)), uint64(1+r.Intn(300)))
		}
	}
	return s
}

// spinOutcome is everything a run of the script exposes.
type spinOutcome struct {
	exits   []uint64
	now     uint64
	seq     uint64
	resumes uint64
	nodes   []coherence.NodeStats
	caches  [][3][2]uint64 // per node: L1I, L1D, L2 hits and misses
	bus     bus.Stats
}

// runSpinScript plays s on a fresh three-node rig, with SpinUntil or with
// the literal loop in its place.
func runSpinScript(t *testing.T, s spinScript, literal bool) spinOutcome {
	t.Helper()
	const flag, ack = 0x1000, 0x2000 // flag's line also holds the false-sharing word
	e, b, nodes := newRig(3)
	e.SetLimit(50_000_000)
	spin := func(c *Port, addr, want, backoff uint64) {
		if literal {
			spinLoop(c, addr, want, backoff)
		} else {
			c.SpinUntil(addr, want, backoff)
		}
	}

	var out spinOutcome
	gate := &Gate{}
	spinner := s.spinner
	if s.gated {
		spinner.Gate = gate
	}
	spinnerDone := false
	Spawn(e, "spinner", nodes[0], spinner, func(c *Port) {
		for k := 0; k < s.rounds; k++ {
			for j := 0; j < s.evict[k]; j++ {
				// Same L1 set and L2 set as flag: pushes it out of both.
				c.Load(flag + uint64(j+1)*(16<<10))
			}
			want := uint64(k + 1)
			spin(c, flag, want, s.backoff[k])
			if s.again[k] {
				spin(c, flag, want, s.backoff[k]) // reads want at once
			}
			out.exits = append(out.exits, c.Now())
			c.Store(ack, want)
		}
	}, func() {
		spinnerDone = true
		gate.NoteExit(e)
	})
	Spawn(e, "writer", nodes[1], Params{OpGap: 1}, func(c *Port) {
		for k := 0; k < s.rounds; k++ {
			// Computes in short steps, so every wake of a spinner
			// that sleeps plainly is a cross-proc handoff.
			for i := uint64(0); i < s.writerGo[k]; i += 5 {
				c.Think(5)
			}
			for j := 0; j < s.falseSh[k]; j++ {
				c.Store(flag+8, uint64(j))
				c.Think(s.writerGo[k] / 4)
			}
			c.Store(flag, uint64(k+1))
			spinLoop(c, ack, uint64(k+1), 7)
		}
	}, nil)
	if s.gated {
		e.Spawn("scheduler", func(p *sim.Proc) {
			for i := 0; i+1 < len(s.closes); i += 2 {
				p.Sleep(s.closes[i])
				gate.Close()
				gate.WaitQuiesce(p, func() int {
					if spinnerDone {
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
		out.caches = append(out.caches, [3][2]uint64{
			{n.L1I.Hits, n.L1I.Misses}, {n.L1D.Hits, n.L1D.Misses}, {n.L2.Hits, n.L2.Misses},
		})
	}
	return out
}

// TestSpinUntilMatchesLiteralLoop runs fuzzed spin-waits through SpinUntil
// and through the literal Load/Think loop on twin rigs: a writer flips the
// word at random cycles and dirties the spin line with false-sharing
// stores, the spinner evicts the line between waits, fetches cross L1I
// lines (some missing), a time-sharing gate closes while the proc spins,
// and OpGap may be 0. Every wait must end at the same cycle, and the
// node, cache and bus statistics, the final clock and the engine's
// sequence counter must match, with fewer coroutine resumes overall.
func TestSpinUntilMatchesLiteralLoop(t *testing.T) {
	var plainResumes, spinResumes uint64
	for seed := int64(1); seed <= 150; seed++ {
		s := newSpinScript(rand.New(rand.NewSource(seed)))
		got, want := runSpinScript(t, s, false), runSpinScript(t, s, true)
		if len(got.exits) != len(want.exits) {
			t.Fatalf("seed %d: %d waits ended, literal loop %d", seed, len(got.exits), len(want.exits))
		}
		for i := range got.exits {
			if got.exits[i] != want.exits[i] {
				t.Fatalf("seed %d: wait %d ended at cycle %d, literal loop %d", seed, i, got.exits[i], want.exits[i])
			}
		}
		if got.now != want.now || got.seq != want.seq {
			t.Fatalf("seed %d: ended at cycle %d seq %d, literal loop cycle %d seq %d", seed, got.now, got.seq, want.now, want.seq)
		}
		for i := range got.nodes {
			if got.nodes[i] != want.nodes[i] || got.caches[i] != want.caches[i] {
				t.Fatalf("seed %d: node %d stats %+v caches %v, literal loop %+v %v",
					seed, i, got.nodes[i], got.caches[i], want.nodes[i], want.caches[i])
			}
		}
		if got.bus != want.bus {
			t.Fatalf("seed %d: bus stats %+v, literal loop %+v", seed, got.bus, want.bus)
		}
		if got.resumes > want.resumes {
			t.Fatalf("seed %d: %d resumes, literal loop %d", seed, got.resumes, want.resumes)
		}
		spinResumes += got.resumes
		plainResumes += want.resumes
	}
	if 2*spinResumes > plainResumes {
		t.Errorf("SpinUntil resumed procs %d times, the literal loop %d: want under half", spinResumes, plainResumes)
	}
}
