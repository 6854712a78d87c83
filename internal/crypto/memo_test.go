package crypto

import (
	"testing"

	"senss/internal/crypto/aes"
	"senss/internal/rng"
)

// countingCipher counts the Encrypt calls that reach the real backend.
type countingCipher struct {
	BlockCipher
	encrypts int
}

func (c *countingCipher) Encrypt(src aes.Block) aes.Block {
	c.encrypts++
	return c.BlockCipher.Encrypt(src)
}

// collidingBlocks returns n distinct blocks that all hash to the same
// Memo slot, so each store evicts the previous one. They share a random
// 14-byte prefix, like counter-mode inputs, so only a full-width input
// compare tells them apart.
func collidingBlocks(r *rng.Rand, n int) []aes.Block {
	first := aes.Block(r.Block16())
	out := []aes.Block{first}
	for ctr := uint16(1); len(out) < n; ctr++ {
		b := first
		b[14] ^= byte(ctr >> 8)
		b[15] ^= byte(ctr)
		if memoIndex(&b) == memoIndex(&first) {
			out = append(out, b)
		}
	}
	return out
}

func TestMemoizeNilIsIdentity(t *testing.T) {
	c := MustBackend(Ref, aes.Block{1})
	if Memoize(c, nil) != c {
		t.Fatal("Memoize with a nil table must return the cipher itself")
	}
}

// TestMemoMatchesBackend: on random inputs, repeats, and inputs forced
// into one slot, the memoized cipher computes exactly its backend's AES.
func TestMemoMatchesBackend(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			r := rng.New(0x3e30)
			key := aes.Block(r.Block16())
			plain := MustBackend(backend, key)
			memo := Memoize(MustBackend(backend, key), new(Memo))

			// The all-zero block, first into an empty table, reads like
			// a wiped slot.
			inputs := []aes.Block{{}}
			for i := 0; i < 512; i++ {
				inputs = append(inputs, aes.Block(r.Block16()))
			}
			collide := collidingBlocks(r, 4)
			for i := 0; i < 64; i++ {
				inputs = append(inputs, collide[i%len(collide)])
			}
			for round := 0; round < 3; round++ {
				for i, in := range inputs {
					if got, want := memo.Encrypt(in), plain.Encrypt(in); got != want {
						t.Fatalf("round %d input %d: memo Encrypt %s != backend %s", round, i, got, want)
					}
				}
			}
		})
	}
}

func TestMemoDecryptUnchanged(t *testing.T) {
	for _, backend := range Backends() {
		r := rng.New(0x3e31)
		key := aes.Block(r.Block16())
		plain := MustBackend(backend, key)
		memo := Memoize(MustBackend(backend, key), new(Memo))
		for i := 0; i < 256; i++ {
			b := aes.Block(r.Block16())
			memo.Encrypt(b)
			if got, want := memo.Decrypt(b), plain.Decrypt(b); got != want {
				t.Fatalf("%s block %d: memo Decrypt %s != backend %s", backend, i, got, want)
			}
		}
	}
}

// TestMemoZeroize: Zeroize on one member's cipher wipes every slot of the
// shared table, and no member is ever answered from a stored result
// afterwards — the zeroized cipher bypasses the table, and the others
// recompute.
func TestMemoZeroize(t *testing.T) {
	r := rng.New(0x3e32)
	key := aes.Block(r.Block16())
	m := new(Memo)
	inner := &countingCipher{BlockCipher: MustBackend(Ref, key)}
	gone := Memoize(MustBackend(Ref, key), m)
	peer := Memoize(inner, m)

	inputs := make([]aes.Block, 300)
	want := make([]aes.Block, len(inputs))
	for i := range inputs {
		if i > 0 { // inputs[0] is the all-zero block, which a wiped slot holds
			inputs[i] = aes.Block(r.Block16())
		}
		want[i] = gone.Encrypt(inputs[i])
	}
	if m.IsZero() {
		t.Fatal("table empty after 300 stores; test is vacuous")
	}
	gone.Zeroize()
	if !m.IsZero() {
		t.Fatal("Zeroize left material in the shared table")
	}
	for i := range m.slots {
		if m.slots[i] != (memoSlot{}) {
			t.Fatalf("slot %d survived Zeroize", i)
		}
	}
	for i, in := range inputs {
		if got := gone.Encrypt(in); got == want[i] {
			t.Fatalf("input %d: zeroized cipher still returns AES under the session key", i)
		}
		if !m.IsZero() {
			t.Fatalf("input %d: zeroized cipher wrote into the shared table", i)
		}
	}
	for i, in := range inputs {
		before := inner.encrypts
		if got := peer.Encrypt(in); got != want[i] {
			t.Fatalf("input %d: peer got %s, want %s", i, got, want[i])
		}
		if inner.encrypts != before+1 {
			t.Fatalf("input %d: peer was answered from a wiped table", i)
		}
	}
}

func TestMemoZeroAlloc(t *testing.T) {
	for _, backend := range Backends() {
		r := rng.New(0x3e33)
		c := Memoize(MustBackend(backend, aes.Block(r.Block16())), new(Memo))
		hit := aes.Block(r.Block16())
		c.Encrypt(hit)
		if n := testing.AllocsPerRun(100, func() { c.Encrypt(hit) }); n != 0 {
			t.Errorf("%s: %.1f allocs per hit, want 0", backend, n)
		}
		collide := collidingBlocks(r, 2)
		i := 0
		if n := testing.AllocsPerRun(100, func() {
			c.Encrypt(collide[i%2]) // each store evicts the other: always a miss
			i++
		}); n != 0 {
			t.Errorf("%s: %.1f allocs per miss, want 0", backend, n)
		}
	}
}

// TestMemoHitRatio replays one broadcast stream through 4 members sharing
// a table, in the SHU's order: each broadcast brings 8 fresh inputs (4
// MAC steps, 4 mask refreshes) that the sender and then each observer
// encrypt. Only the first member can miss, so the ceiling is 0.75; the
// 0.70 floor pins the table size and slot hash against a regression.
func TestMemoHitRatio(t *testing.T) {
	r := rng.New(0x3e34)
	key := aes.Block(r.Block16())
	m := new(Memo)
	const members, broadcasts, perBroadcast = 4, 2000, 8
	inner := make([]*countingCipher, members)
	ciphers := make([]BlockCipher, members)
	for i := range ciphers {
		inner[i] = &countingCipher{BlockCipher: MustBackend(Stdlib, key)}
		ciphers[i] = Memoize(inner[i], m)
	}
	var in [perBroadcast]aes.Block
	for b := 0; b < broadcasts; b++ {
		for j := range in {
			in[j] = aes.Block(r.Block16())
		}
		for k := 0; k < members; k++ {
			for _, blk := range in {
				ciphers[(b+k)%members].Encrypt(blk)
			}
		}
	}
	misses := 0
	for _, c := range inner {
		misses += c.encrypts
	}
	total := members * broadcasts * perBroadcast
	ratio := 1 - float64(misses)/float64(total)
	t.Logf("hit ratio %.3f over %d calls (ceiling %.3f)", ratio, total, 1-1.0/members)
	if ratio < 0.70 {
		t.Fatalf("hit ratio %.3f below 0.70", ratio)
	}
}
