// Package gf128 implements multiplication in GF(2^128) with the GHASH
// polynomial x^128 + x^7 + x^2 + x + 1 (bit-reflected convention of the
// Galois/Counter Mode, NIST SP 800-38D).
//
// SENSS §4.3 notes that a GCM-style construction can provide encryption
// and authentication with a single AES invocation per block, computing the
// MAC with GF(2^128) multiplications over the counter-mode outputs; the
// AuthGF mode of internal/core uses this package for that extension.
package gf128

import "encoding/binary"

// Element is a field element, kept as the two big-endian halves of the
// 128-bit string (GCM's byte order).
type Element struct {
	Hi uint64 // bits 0..63 (leftmost bytes)
	Lo uint64 // bits 64..127
}

// FromBytes loads a 16-byte string.
//
// senss-lint:hotpath
func FromBytes(b [16]byte) Element {
	return Element{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

// Bytes serializes the element.
func (e Element) Bytes() [16]byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], e.Hi)
	binary.BigEndian.PutUint64(b[8:16], e.Lo)
	return b
}

// IsZero reports whether e is the additive identity.
func (e Element) IsZero() bool { return e.Hi == 0 && e.Lo == 0 }

// Add is addition in GF(2^128): XOR.
//
// senss-lint:hotpath
func (e Element) Add(o Element) Element {
	return Element{Hi: e.Hi ^ o.Hi, Lo: e.Lo ^ o.Lo}
}

// One is the multiplicative identity in GCM's reflected representation:
// the byte string 0x80 00 ... 00 (bit 0 set).
func One() Element { return Element{Hi: 0x8000000000000000} }

// Mul multiplies x·y in GF(2^128) per the GCM specification (Algorithm 1
// of SP 800-38D): V iterates over doublings of y while bits of x select
// additions, with the reduction polynomial R = 0xe1 || 0^120.
//
// senss-lint:hotpath
func Mul(x, y Element) Element {
	var z Element
	v := y
	// Walk the bits of x from bit 0 (MSB of the first byte) to bit 127.
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = x.Hi >> (63 - uint(i)) & 1
		} else {
			bit = x.Lo >> (127 - uint(i)) & 1
		}
		if bit != 0 {
			z = z.Add(v)
		}
		// v = v >> 1 (in the bit-string sense), with reduction.
		lsb := v.Lo & 1
		v.Lo = v.Lo>>1 | v.Hi<<63
		v.Hi >>= 1
		if lsb != 0 {
			v.Hi ^= 0xe100000000000000
		}
	}
	return z
}

// GHASH is a running GHASH accumulator: Y ← (Y ⊕ X)·H per block.
type GHASH struct {
	//senss-lint:secret
	h Element
	//senss-lint:secret
	y Element
}

// NewGHASH returns an accumulator keyed by the hash subkey h.
func NewGHASH(h [16]byte) *GHASH {
	return &GHASH{h: FromBytes(h)}
}

// NewGHASHWithState reconstructs an accumulator mid-chain (SHU context
// swap-in): subkey h, accumulator y.
func NewGHASHWithState(h, y [16]byte) *GHASH {
	return &GHASH{h: FromBytes(h), y: FromBytes(y)}
}

// Subkey returns the hash subkey (for encrypted context serialization).
func (g *GHASH) Subkey() [16]byte { return g.h.Bytes() }

// Update absorbs one 16-byte block.
//
// senss-lint:hotpath
func (g *GHASH) Update(block [16]byte) {
	g.y = Mul(g.y.Add(FromBytes(block)), g.h)
}

// Sum returns the current accumulator value.
func (g *GHASH) Sum() [16]byte { return g.y.Bytes() }

// Reset clears the accumulator (the subkey is kept).
func (g *GHASH) Reset() { g.y = Element{} }

// Clone returns an independent copy.
func (g *GHASH) Clone() *GHASH {
	c := *g
	return &c
}

// Zeroize wipes the hash subkey and the accumulator. Both are secret: the
// subkey is AES_K(authIV) and the accumulator authenticates the group's
// message history. The accumulator is unusable afterwards (H = 0 absorbs
// everything to zero).
func (g *GHASH) Zeroize() {
	g.h = Element{}
	g.y = Element{}
}
