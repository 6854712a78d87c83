package core

import (
	"testing"

	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/rng"
)

func naiveChannel(seed uint64) (*NaiveChannel, *rng.Rand) {
	r := rng.New(seed)
	return NewNaiveChannel(crypto.MustBackend(crypto.Ref, aes.Block(r.Block16()))), r
}

func naiveBlocks(r *rng.Rand) []aes.Block {
	return LineToBlocks(randomLine(r))
}

func TestNaiveRoundTrip(t *testing.T) {
	ch, r := naiveChannel(500)
	for seq := uint64(0); seq < 20; seq++ {
		plain := naiveBlocks(r)
		msg := ch.Send(seq, plain)
		got, err := ch.Receive(msg)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		for j := range plain {
			if got[j] != plain[j] {
				t.Fatalf("seq %d block %d corrupted", seq, j)
			}
		}
	}
}

func TestNaiveDetectsCorruption(t *testing.T) {
	ch, r := naiveChannel(501)
	msg := ch.Send(3, naiveBlocks(r))
	msg.Cipher[1][5] ^= 0x10
	if _, err := ch.Receive(msg); err == nil {
		t.Fatal("corrupted message passed the per-message MAC")
	}
}

// TestNaiveMissesDrop reproduces the paper's Type 1 argument against
// unchained authentication: a receiver that never saw message 5 still
// verifies messages 6, 7, ... perfectly — the drop is invisible.
func TestNaiveMissesDrop(t *testing.T) {
	ch, r := naiveChannel(502)
	for seq := uint64(0); seq < 10; seq++ {
		msg := ch.Send(seq, naiveBlocks(r))
		if seq == 5 {
			continue // dropped on the wire for this receiver
		}
		if _, err := ch.Receive(msg); err != nil {
			t.Fatalf("seq %d rejected after the drop: %v — the strawman should NOT notice", seq, err)
		}
	}
}

// TestNaiveMissesReplay reproduces the paper's Type 3 argument: an old
// message with its valid MAC re-verifies.
func TestNaiveMissesReplay(t *testing.T) {
	ch, r := naiveChannel(503)
	old := ch.Send(2, naiveBlocks(r))
	ch.Send(3, naiveBlocks(r))
	if _, err := ch.Receive(old); err != nil {
		t.Fatalf("replayed message rejected: %v — the strawman should accept it", err)
	}
}

// TestNaiveMissesReordering: self-contained messages verify in any order.
func TestNaiveMissesReordering(t *testing.T) {
	ch, r := naiveChannel(504)
	m1 := ch.Send(1, naiveBlocks(r))
	m2 := ch.Send(2, naiveBlocks(r))
	if _, err := ch.Receive(m2); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Receive(m1); err != nil {
		t.Fatalf("out-of-order delivery rejected: %v — the strawman should accept it", err)
	}
}

// TestSENSSCatchesWhatNaiveMisses drives the same drop through the real
// SENSS chains side by side, as the §8 comparison table.
func TestSENSSCatchesWhatNaiveMisses(t *testing.T) {
	params := DefaultParams()
	params.AuthInterval = 8
	s, gid := newTestSystem(t, 4, params, 505)
	s.SetTamperer(NewScript(4, []Step{{Seq: 5, Action: ActDrop, Victim: 2}}))
	r := rng.New(506)
	for i := 0; i < 20 && !s.Detected(); i++ {
		c2c(s, gid, 0, 1, randomLine(r))
	}
	if !s.Detected() {
		t.Fatal("SENSS missed the drop the naive scheme also misses")
	}
}
