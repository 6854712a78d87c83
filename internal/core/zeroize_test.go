package core

import (
	"testing"

	"senss/internal/crypto"
	"senss/internal/crypto/aes"
)

// zeroizeHarness joins PID 0 and PID 1 into group 0 around one shared AES
// memo, as System.Establish does, exchanges one line so every chain
// component has advanced past its initial state, and returns the live
// session pieces of PID 0 so a test can assert on them after the session
// object itself becomes unreachable.
func zeroizeHarness(t *testing.T, mode AuthMode) (shu, peer *SHU, ss *session, memo *crypto.Memo) {
	t.Helper()
	params := DefaultParams()
	params.AuthMode = mode
	shu = NewSHU(0, params)
	peer = NewSHU(1, params)
	memo = new(crypto.Memo)
	key := aes.Block{0xaa, 1, 2, 3}
	encIV := aes.Block{4, 5, 6}
	authIV := aes.Block{7, 8, 9}
	for _, s := range []*SHU{shu, peer} {
		if err := s.join(0, key, MemberMask(0, 1), encIV, authIV, memo); err != nil {
			t.Fatal(err)
		}
	}
	exchangeLine(t, shu, peer)
	ss = shu.sessions[0]
	if ss == nil || ss.seq == 0 {
		t.Fatal("session did not advance; harness is vacuous")
	}
	if memo.IsZero() {
		t.Fatal("shared memo still empty; harness is vacuous")
	}
	return shu, peer, ss, memo
}

// exchangeLine sends one line from sender to receiver on group 0.
func exchangeLine(t *testing.T, sender, receiver *SHU) {
	t.Helper()
	line := make([]aes.Block, BlocksPerLine)
	for i := range line {
		line[i] = aes.BlockFromUint64(uint64(i), 0xdead)
	}
	ct, err := sender.Encrypt(0, line)
	if err != nil {
		t.Fatal(err)
	}
	if receiver == nil {
		return
	}
	if _, err := receiver.Observe(0, ct, sender.PID); err != nil {
		t.Fatal(err)
	}
}

// assertSessionWiped checks every secret the session held reads back as
// zero: mask banks, counter base, both chain states, and the expanded key
// schedule of the cipher it owned. before is the cipher's output for
// zeroizeProbe captured while the session key was still installed; any
// backend that still produces it after zeroization kept the key.
func assertSessionWiped(t *testing.T, ss *session, banks [][]aes.Block, cipher crypto.BlockCipher, before aes.Block) {
	t.Helper()
	for i, bank := range banks {
		for j, b := range bank {
			if !b.IsZero() {
				t.Errorf("bank[%d][%d] = %v survived", i, j, b)
			}
		}
	}
	if !ss.ctrBase.IsZero() || ss.ctr != 0 || ss.seq != 0 {
		t.Errorf("counter state survived: ctrBase=%v ctr=%d seq=%d", ss.ctrBase, ss.ctr, ss.seq)
	}
	if sum := ss.mac.Sum(); !sum.IsZero() || ss.mac.Blocks() != 0 {
		t.Errorf("MAC chain survived: sum=%v blocks=%d", sum, ss.mac.Blocks())
	}
	if ss.ghash != nil {
		if ss.ghash.Subkey() != ([16]byte{}) || ss.ghash.Sum() != ([16]byte{}) {
			t.Error("GHASH state survived")
		}
	}
	if ss.cipher != nil {
		t.Error("cipher reference survived")
	}
	// Behavioral erasure check, backend-independent: the zeroized cipher
	// must no longer compute AES under the session key.
	if cipher.Encrypt(zeroizeProbe) == before {
		t.Error("key schedule survived zeroization")
	}
}

// zeroizeProbe is the plaintext block assertSessionWiped encrypts before
// and after zeroization.
var zeroizeProbe = aes.Block{0x42}

// TestLeaveZeroizesSession: Leave must wipe the group's key-derived
// material in both authentication modes, not merely unlink the map entry,
// and every member's Leave wipes the group's shared AES memo.
func TestLeaveZeroizesSession(t *testing.T) {
	for _, mode := range []AuthMode{AuthCBC, AuthGF} {
		t.Run(mode.String(), func(t *testing.T) {
			shu, peer, ss, memo := zeroizeHarness(t, mode)
			banks, cipher := ss.banks, ss.cipher
			before := cipher.Encrypt(zeroizeProbe)
			if banks[0][0].IsZero() {
				t.Fatal("mask bank starts zero; test is vacuous")
			}
			shu.Leave(0)
			if shu.sessions[0] != nil || shu.Members(0) != 0 || shu.memos[0] != nil {
				t.Fatal("Leave did not clear the session entry")
			}
			assertSessionWiped(t, ss, banks, cipher, before)
			if !memo.IsZero() {
				t.Error("shared memo survived the first member's Leave")
			}

			// The remaining member refills the table; its Leave wipes it.
			exchangeLine(t, peer, nil)
			if memo.IsZero() {
				t.Fatal("remaining member no longer uses the shared memo; test is vacuous")
			}
			peer.Leave(0)
			if !memo.IsZero() {
				t.Error("shared memo survived the last member's Leave")
			}
		})
	}
}

// TestSuspendZeroizesSession: after Suspend the encrypted blob must be the
// sole carrier of the chain state — the on-chip copy is wiped (membership
// stays, so the SHU keeps filtering bus traffic for the group).
func TestSuspendZeroizesSession(t *testing.T) {
	for _, mode := range []AuthMode{AuthCBC, AuthGF} {
		t.Run(mode.String(), func(t *testing.T) {
			shu, _, ss, memo := zeroizeHarness(t, mode)
			banks, cipher := ss.banks, ss.cipher
			before := cipher.Encrypt(zeroizeProbe)
			if _, err := shu.Suspend(0, 42); err != nil {
				t.Fatal(err)
			}
			if shu.sessions[0] != nil {
				t.Fatal("Suspend did not remove the session entry")
			}
			if shu.Members(0) == 0 || shu.memos[0] != memo {
				t.Fatal("Suspend must preserve group membership and the memo to rejoin")
			}
			assertSessionWiped(t, ss, banks, cipher, before)
			if !memo.IsZero() {
				t.Error("shared memo survived Suspend")
			}
		})
	}
}
