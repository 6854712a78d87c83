package core

import (
	"testing"

	"senss/internal/rng"
)

// TestScriptKeysStepsToWireIndex: steps count broadcasts on the wire, not
// a sender's own sequence number, which stalls on a processor that
// missed a message. After broadcast 1 is dropped for processor 2, a step
// at broadcast 6 — which processor 2 sends — still lands on broadcast 6,
// and a step at broadcast 5 lands there once.
func TestScriptKeysStepsToWireIndex(t *testing.T) {
	s, gid := newTestSystem(t, 4, DefaultParams(), 80)
	script := NewScript(4, []Step{
		{Seq: 1, Action: ActDrop, Victim: 2},
		{Seq: 5, Action: ActCorrupt, Victim: 0},
		{Seq: 6, Action: ActCorrupt, Victim: 0},
	})
	s.SetTamperer(script)
	r := rng.New(81)
	for i := 0; i < 8; i++ {
		c2c(s, gid, i%4, (i+1)%4, randomLine(r))
	}
	for i, want := range []int64{1, 5, 6} {
		if got := script.landed[i]; got != want {
			t.Errorf("step %d landed on broadcast %d, want %d", i, got, want)
		}
	}
	// Processor 0 receives broadcasts 1, 2, 3, 5, 6 and 7: exactly the
	// 4th and 5th messages it observes are corrupted.
	sent, got := script.Sent(0), script.got[0]
	if len(sent) != 6 || len(got) != 6 {
		t.Fatalf("processor 0 was sent %d and delivered %d messages, want 6 and 6", len(sent), len(got))
	}
	for k := range sent {
		if corrupted := !observedEqual(sent[k], got[k]); corrupted != (k == 3 || k == 4) {
			t.Errorf("message %d to processor 0: corrupted=%v", k, corrupted)
		}
	}
}

// TestScriptStepWaitsForVictim: a step whose victim does not receive the
// broadcast at Seq — here, a member of another group — lands on the next
// broadcast it does receive.
func TestScriptStepWaitsForVictim(t *testing.T) {
	params := DefaultParams()
	params.Perfect = true
	s := NewSystem(nil, nil, 4, params, false)
	table := NewGroupTable()
	var gids [2]int
	for i, members := range []uint32{MemberMask(0, 1), MemberMask(2, 3)} {
		gids[i], _ = table.Allocate(members)
		key, encIV, authIV := testIVs(82 + uint64(i))
		if err := s.Establish(gids[i], key, members, encIV, authIV); err != nil {
			t.Fatal(err)
		}
	}
	script := NewScript(4, []Step{{Seq: 0, Action: ActDrop, Victim: 2}})
	s.SetTamperer(script)
	r := rng.New(84)
	c2c(s, gids[0], 0, 1, randomLine(r)) // broadcast 0: processors 0 and 1 only
	if _, ok := script.Landed(); ok {
		t.Fatal("step landed on a broadcast its victim never receives")
	}
	c2c(s, gids[1], 3, 2, randomLine(r)) // broadcast 1: from 3 to 2
	if seq, ok := script.Landed(); !ok || seq != 1 {
		t.Fatalf("step landed at %d (landed=%v), want broadcast 1", seq, ok)
	}
	if !script.Deviated() {
		t.Error("landed drop not counted as a deviation")
	}
}
