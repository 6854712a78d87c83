package core

import (
	"bytes"
	"testing"

	"senss/internal/crypto/aes"
	"senss/internal/rng"
)

func gfParams() Params {
	p := DefaultParams()
	p.AuthMode = AuthGF
	p.AuthInterval = 10
	return p
}

func TestGFModeCleanRoundTrip(t *testing.T) {
	s, gid := newTestSystem(t, 4, gfParams(), 200)
	r := rng.New(201)
	for i := 0; i < 60; i++ {
		line := randomLine(r)
		txn := c2c(s, gid, i%4, (i+1)%4, line)
		if !bytes.Equal(txn.Data, line) {
			t.Fatalf("transfer %d corrupted", i)
		}
	}
	ref, _ := s.SHU(0).MACSum(gid)
	for pid := 1; pid < 4; pid++ {
		m, _ := s.SHU(pid).MACSum(gid)
		if m != ref {
			t.Errorf("processor %d GHASH diverged on clean traffic", pid)
		}
	}
	if s.Detected() {
		t.Errorf("false alarm: %v", s.Stats.Detections)
	}
}

func TestGFModeDetectsDropping(t *testing.T) {
	s, gid := newTestSystem(t, 4, gfParams(), 202)
	s.SetTamperer(NewScript(4, []Step{{Seq: 2, Action: ActDrop, Victim: 3}}))
	r := rng.New(203)
	for i := 0; i < 12 && !s.Detected(); i++ {
		c2c(s, gid, 0, 1, randomLine(r))
	}
	caughtByMAC(t, s)
}

func TestGFModeDetectsReordering(t *testing.T) {
	s, gid := newTestSystem(t, 4, gfParams(), 204)
	s.SetTamperer(NewScript(4, swapAfter(1, 1, 2, 3)))
	r := rng.New(205)
	for i := 0; i < 12 && !s.Detected(); i++ {
		c2c(s, gid, 0, 1+(i%3), randomLine(r))
	}
	caughtByMAC(t, s)
}

func TestGFModeDetectsSpoofing(t *testing.T) {
	s, gid := newTestSystem(t, 4, gfParams(), 206)
	r := rng.New(207)
	s.SetTamperer(NewScript(4, []Step{{Seq: 1, Action: ActSpoof, Victim: 3, Arg: 2}}))
	for i := 0; i < 12 && !s.Detected(); i++ {
		c2c(s, gid, 0, 1, randomLine(r))
	}
	caughtByMAC(t, s)
}

// TestGFModeNeverStalls is the mode's performance property: even with a
// single mask bank under back-to-back traffic, no stall cycles accrue.
func TestGFModeNeverStalls(t *testing.T) {
	params := gfParams()
	params.Perfect = false
	params.Masks = 1
	// newTestSystem forces Perfect=true, so build by hand.
	s := NewSystem(nil, nil, 2, params, false)
	key, encIV, authIV := testIVs(208)
	table := NewGroupTable()
	gid, _ := table.Allocate(MemberMask(0, 1))
	if err := s.Establish(gid, key, MemberMask(0, 1), encIV, authIV); err != nil {
		t.Fatal(err)
	}
	r := rng.New(209)
	for i := 0; i < 50; i++ {
		line := randomLine(r)
		txn := c2c(s, gid, 0, 1, line)
		if !bytes.Equal(txn.Data, line) {
			t.Fatalf("transfer %d corrupted", i)
		}
	}
	if s.Stats.MaskStalls != 0 {
		t.Errorf("AuthGF accrued %d stall cycles", s.Stats.MaskStalls)
	}
}

// TestGFMasksNeverRepeat: counter-mode masks must be unique across a long
// trace (pad reuse would reintroduce the §3.1 leak).
func TestGFMasksNeverRepeat(t *testing.T) {
	s, gid := newTestSystem(t, 2, gfParams(), 210)
	tap := NewScript(2, nil)
	s.SetTamperer(tap)
	line := make([]byte, 64) // constant plaintext: repeated masks ⇒ repeated cipher
	for i := 0; i < 100; i++ {
		c2c(s, gid, 0, 1, line)
	}
	seen := make(map[aes.Block]int)
	for i, msg := range tap.Sent(1) {
		for _, b := range msg.Cipher {
			if prev, dup := seen[b]; dup {
				t.Fatalf("mask reuse: message %d repeats a block of message %d", i, prev)
			}
			seen[b] = i
		}
	}
}

func TestGFAndCBCChainsDiffer(t *testing.T) {
	// The same traffic under the two modes must produce unrelated tags
	// (different constructions, same inputs).
	run := func(p Params) aes.Block {
		s, gid := newTestSystem(t, 2, p, 211)
		r := rng.New(212)
		for i := 0; i < 10; i++ {
			c2c(s, gid, 0, 1, randomLine(r))
		}
		sum, _ := s.SHU(0).MACSum(gid)
		return sum
	}
	cbc := run(DefaultParams())
	gf := run(gfParams())
	if cbc == gf {
		t.Error("CBC and GF chains produced the same value")
	}
}

func TestAuthModeString(t *testing.T) {
	if AuthCBC.String() != "cbc" || AuthGF.String() != "gf" {
		t.Error("mode names wrong")
	}
}
