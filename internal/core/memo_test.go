package core

import (
	"bytes"
	"reflect"
	"testing"

	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/rng"
)

// corruptTamperer flips one ciphertext bit in what one victim observes of
// one message.
type corruptTamperer struct {
	atSeq  uint64
	victim int
}

func (c *corruptTamperer) Tamper(seq uint64, sender int, cipher []aes.Block) map[int][]Observed {
	if seq != c.atSeq || sender == c.victim {
		return nil
	}
	bad := make([]aes.Block, len(cipher))
	copy(bad, cipher)
	bad[1][5] ^= 0x10
	return map[int][]Observed{c.victim: {{Cipher: bad, Sender: sender}}}
}

// TestSharedMemoMatchesUnsharedMembers runs one message stream through a
// System, whose members share the group's AES memo, and through a twin
// whose members joined standalone and share nothing. Under every attack —
// the diverged members simply miss in the table — the recovered
// plaintexts, MAC chains, mask banks and detections agree message for
// message.
func TestSharedMemoMatchesUnsharedMembers(t *testing.T) {
	fake := LineToBlocks(randomLine(rng.New(1612)))
	cases := []struct {
		name   string
		tamper func() Tamperer
		reuse  bool
	}{
		{name: "clean"},
		{name: "drop", tamper: func() Tamperer { return &dropTamperer{dropSeq: 3, victims: []int{2, 3}} }},
		{name: "reorder", tamper: func() Tamperer { return &swapTamperer{swapSeq: 4, procs: 4} }},
		{name: "spoof", tamper: func() Tamperer { return &spoofTamperer{atSeq: 2, victim: 3, claimed: 1, payload: fake} }},
		{name: "spoof-self", tamper: func() Tamperer { return &spoofTamperer{atSeq: 5, victim: 2, claimed: 2, payload: fake} }},
		{name: "corrupt", tamper: func() Tamperer { return &corruptTamperer{atSeq: 6, victim: 1} }},
		{name: "replay", tamper: func() Tamperer { return &replayTamperer{captureSeq: 1, replaySeq: 7, victim: 0} }},
		{name: "mask-reuse", reuse: true},
	}
	for _, mode := range []AuthMode{AuthCBC, AuthGF} {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				params := DefaultParams()
				params.AuthMode = mode
				params.AuthInterval = 4
				shared, gid := newTestSystem(t, 4, params, 1610)
				unshared, _ := newTestSystem(t, 4, params, 1610)
				key, encIV, authIV := testIVs(1610)
				members := MemberMask(0, 1, 2, 3)
				memo := shared.SHU(0).memos[gid]
				for pid := 0; pid < 4; pid++ {
					unshared.SHU(pid).Leave(gid)
					if err := unshared.SHU(pid).Join(gid, key, members, encIV, authIV); err != nil {
						t.Fatal(err)
					}
					if memo == nil || shared.SHU(pid).memos[gid] != memo || unshared.SHU(pid).memos[gid] != nil {
						t.Fatal("twins not set up as shared vs unshared")
					}
				}
				if tc.tamper != nil {
					shared.SetTamperer(tc.tamper())
					unshared.SetTamperer(tc.tamper())
				}
				if tc.reuse {
					shared.InjectMaskReuse(gid)
					unshared.InjectMaskReuse(gid)
				}

				r := rng.New(1611)
				for i := 0; i < 48; i++ {
					sender := (3 * i) % 4
					requester := (sender + 1 + i%3) % 4
					line := randomLine(r)
					a := c2c(shared, gid, sender, requester, line)
					b := c2c(unshared, gid, sender, requester, line)
					if !bytes.Equal(a.Data, b.Data) {
						t.Fatalf("message %d: requester recovered different plaintexts", i)
					}
					for pid := 0; pid < 4; pid++ {
						x, y := shared.SHU(pid).sessions[gid], unshared.SHU(pid).sessions[gid]
						if x.seq != y.seq || x.alarmed != y.alarmed || !reflect.DeepEqual(x.banks, y.banks) {
							t.Fatalf("message %d: processor %d session state differs", i, pid)
						}
						xs, _ := shared.SHU(pid).MACSum(gid)
						ys, _ := unshared.SHU(pid).MACSum(gid)
						if xs != ys {
							t.Fatalf("message %d: processor %d MAC %s != %s", i, pid, xs, ys)
						}
					}
					if !reflect.DeepEqual(shared.Stats, unshared.Stats) {
						t.Fatalf("message %d: stats differ:\n shared   %+v\n unshared %+v", i, shared.Stats, unshared.Stats)
					}
				}
				if detected := shared.Detected(); detected != (tc.tamper != nil) {
					t.Fatalf("detected = %v with tamperer %v; stream does not exercise the case", detected, tc.tamper != nil)
				}
				if memo.IsZero() {
					t.Fatal("shared memo never used")
				}
			})
		}
	}
}

// BenchmarkBroadcast measures the host cost of one 4-member CBC broadcast
// as the bus datapath runs it: the supplier's EncryptInto plus the three
// other members' ObserveInto, with the senders taking turns.
func BenchmarkBroadcast(b *testing.B) {
	for _, backend := range crypto.Backends() {
		b.Run(backend, func(b *testing.B) {
			params := DefaultParams()
			params.Backend = backend
			params.Perfect = true
			s := NewSystem(nil, nil, 4, params, false)
			key, encIV, authIV := testIVs(1600)
			const gid = 1
			if err := s.Establish(gid, key, MemberMask(0, 1, 2, 3), encIV, authIV); err != nil {
				b.Fatal(err)
			}
			r := rng.New(1601)
			line := make([]byte, BlocksPerLine*aes.BlockSize)
			r.Read(line)
			plain := LineToBlocks(line)
			wire := make([]aes.Block, BlocksPerLine)
			got := make([]aes.Block, BlocksPerLine)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sender := i % 4
				if err := s.SHU(sender).EncryptInto(gid, plain, wire); err != nil {
					b.Fatal(err)
				}
				for pid := 0; pid < 4; pid++ {
					if pid == sender {
						continue
					}
					if err := s.SHU(pid).ObserveInto(gid, wire, sender, got); err != nil {
						b.Fatal(err)
					}
				}
				plain[0] = got[0].XOR(plain[1])
			}
		})
	}
}
