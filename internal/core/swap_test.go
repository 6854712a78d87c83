package core

import (
	"bytes"
	"testing"

	"senss/internal/rng"
)

// suspendAll swaps out every member's context for gid.
func suspendAll(t *testing.T, s *System, gid int, seed uint64) []*SavedContext {
	t.Helper()
	var out []*SavedContext
	for pid := 0; pid < 4; pid++ {
		saved, err := s.SHU(pid).Suspend(gid, seed)
		if err != nil {
			t.Fatalf("suspend %d: %v", pid, err)
		}
		out = append(out, saved)
	}
	return out
}

func TestSuspendResumeContinuesChains(t *testing.T) {
	for _, mode := range []AuthMode{AuthCBC, AuthGF} {
		params := DefaultParams()
		params.AuthMode = mode
		params.AuthInterval = 10
		s, gid := newTestSystem(t, 4, params, 300+uint64(mode))
		r := rng.New(301)

		// Some traffic, then swap everyone out and back in.
		for i := 0; i < 17; i++ {
			c2c(s, gid, i%4, (i+1)%4, randomLine(r))
		}
		contexts := suspendAll(t, s, gid, 42)

		// While suspended, the SHUs hold no chain state for the group.
		if _, err := s.SHU(0).Encrypt(gid, LineToBlocks(randomLine(r))); err == nil {
			t.Fatal("suspended SHU still encrypts")
		}

		for pid, ctx := range contexts {
			if err := s.SHU(pid).Resume(ctx, keyFor(t, s, gid, 300+uint64(mode))); err != nil {
				t.Fatalf("mode %v resume %d: %v", mode, pid, err)
			}
		}

		// Traffic continues seamlessly: round-trips and auth both pass.
		for i := 0; i < 23; i++ {
			line := randomLine(r)
			txn := c2c(s, gid, i%4, (i+2)%4, line)
			if !bytes.Equal(txn.Data, line) {
				t.Fatalf("mode %v: post-resume transfer %d corrupted", mode, i)
			}
		}
		s.ForceAuthentication(gid)
		if s.Detected() {
			t.Fatalf("mode %v: false alarm after swap: %v", mode, s.Stats.Detections)
		}
	}
}

// keyFor rebuilds the session key the same way newTestSystem derived it.
func keyFor(t *testing.T, s *System, gid int, seed uint64) [16]byte {
	t.Helper()
	key, _, _ := testIVs(seed)
	return key
}

// TestSuspendResumeRejoinsSharedMemo: Suspend wipes the group's shared
// AES memo, Resume puts every member back on that same table, and the
// chains continue across the swap.
func TestSuspendResumeRejoinsSharedMemo(t *testing.T) {
	for _, mode := range []AuthMode{AuthCBC, AuthGF} {
		t.Run(mode.String(), func(t *testing.T) {
			params := DefaultParams()
			params.AuthMode = mode
			params.AuthInterval = 5
			seed := 320 + uint64(mode)
			s, gid := newTestSystem(t, 4, params, seed)
			memo := s.SHU(0).memos[gid]
			r := rng.New(seed + 1)
			for i := 0; i < 9; i++ {
				c2c(s, gid, i%4, (i+1)%4, randomLine(r))
			}
			contexts := suspendAll(t, s, gid, 43)
			if !memo.IsZero() {
				t.Fatal("shared memo survived Suspend")
			}
			key := keyFor(t, s, gid, seed)
			for pid, ctx := range contexts {
				if err := s.SHU(pid).Resume(ctx, key); err != nil {
					t.Fatal(err)
				}
				if s.SHU(pid).memos[gid] != memo {
					t.Fatalf("processor %d lost the group's memo across the swap", pid)
				}
			}
			for i := 0; i < 11; i++ {
				line := randomLine(r)
				if txn := c2c(s, gid, i%4, (i+3)%4, line); !bytes.Equal(txn.Data, line) {
					t.Fatalf("post-resume transfer %d corrupted", i)
				}
			}
			s.ForceAuthentication(gid)
			if s.Detected() {
				t.Fatalf("false alarm after swap: %v", s.Stats.Detections)
			}

			// Each resumed member's cipher wraps the shared table: its own
			// Suspend wipes the table the others just filled.
			for pid := 0; pid < 4; pid++ {
				c2c(s, gid, (pid+1)%4, (pid+2)%4, randomLine(r))
				if memo.IsZero() {
					t.Fatal("post-resume traffic left the shared memo empty")
				}
				saved, err := s.SHU(pid).Suspend(gid, 44+uint64(pid))
				if err != nil {
					t.Fatal(err)
				}
				if !memo.IsZero() {
					t.Fatalf("processor %d's resumed session is not on the shared memo", pid)
				}
				if err := s.SHU(pid).Resume(saved, key); err != nil {
					t.Fatal(err)
				}
			}
			s.ForceAuthentication(gid)
			if s.Detected() {
				t.Fatalf("false alarm after per-member swaps: %v", s.Stats.Detections)
			}
		})
	}
}

// TestResumeRejectsRetaggedContext: SavedContext.GID travels in the clear,
// so the OS could retag a context for another group the processor is in.
// The GID sealed inside the blob must refuse it, keeping a wrong-key
// session (and its results) off the other group's state and AES memo.
func TestResumeRejectsRetaggedContext(t *testing.T) {
	params := DefaultParams()
	s, gid := newTestSystem(t, 4, params, 316)
	other := gid + 1
	otherKey, encIV, authIV := testIVs(317)
	if err := s.Establish(other, otherKey, MemberMask(0, 1, 2, 3), encIV, authIV); err != nil {
		t.Fatal(err)
	}
	r := rng.New(318)
	for i := 0; i < 4; i++ {
		c2c(s, other, i%4, (i+1)%4, randomLine(r))
	}
	memo := s.SHU(1).memos[other]
	if memo.IsZero() {
		t.Fatal("other group's memo empty; test is vacuous")
	}
	saved, err := s.SHU(1).Suspend(gid, 7)
	if err != nil {
		t.Fatal(err)
	}
	saved.GID = other
	if err := s.SHU(1).Resume(saved, keyFor(t, s, gid, 316)); err == nil {
		t.Fatal("context resumed into another group")
	}
	if s.SHU(1).sessions[other] == nil || memo.IsZero() {
		t.Fatal("rejected resume disturbed the other group")
	}
	for i := 0; i < 4; i++ {
		line := randomLine(r)
		if txn := c2c(s, other, i%4, (i+1)%4, line); !bytes.Equal(txn.Data, line) {
			t.Fatalf("other group's transfer %d corrupted", i)
		}
	}
	s.ForceAuthentication(other)
	if s.Detected() {
		t.Fatalf("false alarm on the other group: %v", s.Stats.Detections)
	}
}

func TestResumeRejectsTamperedContext(t *testing.T) {
	params := DefaultParams()
	s, gid := newTestSystem(t, 4, params, 310)
	r := rng.New(311)
	for i := 0; i < 5; i++ {
		c2c(s, gid, i%4, (i+1)%4, randomLine(r))
	}
	saved, err := s.SHU(2).Suspend(gid, 7)
	if err != nil {
		t.Fatal(err)
	}
	saved.Ciphertext[8] ^= 0x01 // the OS (or an attacker) flips one bit
	if err := s.SHU(2).Resume(saved, keyFor(t, s, gid, 310)); err == nil {
		t.Fatal("tampered context accepted")
	}
}

func TestResumeRejectsWrongProcessor(t *testing.T) {
	params := DefaultParams()
	s, gid := newTestSystem(t, 4, params, 312)
	saved, err := s.SHU(1).Suspend(gid, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SHU(3).Resume(saved, keyFor(t, s, gid, 312)); err == nil {
		t.Fatal("context resumed on the wrong processor")
	}
}

func TestResumeRejectsWrongKey(t *testing.T) {
	params := DefaultParams()
	s, gid := newTestSystem(t, 4, params, 313)
	saved, err := s.SHU(1).Suspend(gid, 7)
	if err != nil {
		t.Fatal(err)
	}
	wrong, _, _ := testIVs(999)
	if err := s.SHU(1).Resume(saved, wrong); err == nil {
		t.Fatal("context resumed under the wrong session key")
	}
}

func TestSuspendedContextIsOpaque(t *testing.T) {
	// The serialized plaintext must not appear in the blob: check that the
	// current mask material (which we can compute via a fresh parallel
	// session) is not visible in the ciphertext.
	params := DefaultParams()
	s, gid := newTestSystem(t, 4, params, 314)
	r := rng.New(315)
	for i := 0; i < 3; i++ {
		c2c(s, gid, i%4, (i+1)%4, randomLine(r))
	}
	saved, err := s.SHU(0).Suspend(gid, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Sequence numbers (small integers) would appear as predictable
	// big-endian words in a plaintext dump; scan for the seq value 3.
	var needle [8]byte
	needle[7] = 3
	if bytes.Contains(saved.Ciphertext, needle[:]) {
		// One-in-2^64 false positive per offset; with a short blob this
		// indicates plaintext leakage.
		t.Error("suspended context appears to contain plaintext state")
	}
	if err := s.SHU(0).Resume(saved, keyFor(t, s, gid, 314)); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendWithoutSessionFails(t *testing.T) {
	shu := NewSHU(0, DefaultParams())
	if _, err := shu.Suspend(5, 1); err == nil {
		t.Error("suspend of non-existent session succeeded")
	}
}
