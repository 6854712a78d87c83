package crypto

import (
	"encoding/binary"

	"senss/internal/crypto/aes"
	"senss/internal/crypto/ct"
)

// memoBits sizes the Memo table at 1<<memoBits slots. One broadcast puts
// 8 distinct inputs through every member's cipher (4 mask refreshes, 4
// MAC steps); 256 slots keep slot collisions among them rare enough that
// a 4-member group hits ≈0.72 of its calls, against the 1 − 1/members =
// 0.75 ceiling (DESIGN.md §14).
const (
	memoBits  = 8
	memoSlots = 1 << memoBits
)

// memoSlot is one (input, AES_K(input)) pair. full distinguishes a stored
// pair from a wiped slot, so the all-zero input never reads a wiped
// output as a hit.
type memoSlot struct {
	//senss-lint:secret
	in aes.Block
	//senss-lint:secret
	out  aes.Block
	full bool
}

// Memo is a direct-mapped table of AES results shared by the ciphers of
// one group's members. All of them hold the same session key, so a block
// one member has encrypted is a lookup for the rest. The zero value is an
// empty table; Zeroize on any cipher wrapping it wipes every slot.
type Memo struct {
	slots [memoSlots]memoSlot
}

// IsZero reports whether every slot has been wiped.
func (m *Memo) IsZero() bool {
	var zero aes.Block
	wiped := true
	for i := range m.slots {
		s := &m.slots[i]
		wiped = wiped && !s.full && ct.Equal(s.in[:], zero[:]) && ct.Equal(s.out[:], zero[:])
	}
	return wiped
}

// wipe zeroes every slot.
func (m *Memo) wipe() {
	for i := range m.slots {
		m.slots[i] = memoSlot{}
	}
}

// memoIndex hashes a cipher input to its slot: the two halves folded and
// spread by a Fibonacci multiply, so structured inputs (counter-mode
// blocks differing in their low bytes) still scatter.
//
//senss-lint:hotpath
func memoIndex(src *aes.Block) int {
	h := binary.LittleEndian.Uint64(src[0:8]) ^ binary.LittleEndian.Uint64(src[8:16])
	return int((h * 0x9e3779b97f4a7c15) >> (64 - memoBits))
}

// memoCipher is a BlockCipher whose Encrypt goes through a shared Memo.
type memoCipher struct {
	c BlockCipher
	m *Memo // nil once zeroized: the table is never touched again
}

// Memoize returns c with its Encrypt results cached in m. AES_K is a pure
// function, so the wrapper computes exactly what c does; every cipher
// sharing m must hold the same key. A nil m returns c itself.
func Memoize(c BlockCipher, m *Memo) BlockCipher {
	if m == nil {
		return c
	}
	return &memoCipher{c: c, m: m}
}

// Encrypt returns the stored result when src's slot holds src, and
// otherwise computes it with the wrapped cipher and stores it.
//
//senss-lint:hotpath
func (mc *memoCipher) Encrypt(src aes.Block) aes.Block {
	if mc.m == nil {
		return mc.c.Encrypt(src)
	}
	s := &mc.m.slots[memoIndex(&src)]
	if s.full && ct.Equal(s.in[:], src[:]) {
		return s.out
	}
	out := mc.c.Encrypt(src)
	s.in, s.out, s.full = src, out, true
	return out
}

// Decrypt passes through to the wrapped cipher: only the swap path
// decrypts, and its blocks never repeat.
func (mc *memoCipher) Decrypt(src aes.Block) aes.Block {
	return mc.c.Decrypt(src)
}

// Zeroize zeroizes the wrapped cipher and wipes the whole shared table,
// then detaches from it.
func (mc *memoCipher) Zeroize() {
	mc.c.Zeroize()
	if mc.m != nil {
		mc.m.wipe()
		mc.m = nil
	}
}
