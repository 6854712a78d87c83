// Package cbcmac implements the chained CBC-MAC of SENSS Eq. (1):
//
//	MAC_t = AES_K( ... AES_K( AES_K(IV ⊕ in_1) ⊕ in_2 ) ... ⊕ in_t )
//
// following FIPS PUB 113 ("Computer Data Authentication") generalized with a
// non-zero initial vector.  In SENSS every bus transfer contributes one or
// more input blocks (the data block with its originating PID folded in), so
// the running MAC authenticates the entire broadcast history of a group.
// All group members keep the chain in lock-step; the paper's Type 1-3 bus
// attacks all surface as a divergence of this chain at the next
// authentication point.
package cbcmac

import (
	"senss/internal/crypto"
	"senss/internal/crypto/aes"
)

// MAC is a running chained MAC. The zero value is unusable; use New.
type MAC struct {
	cipher crypto.BlockCipher
	//senss-lint:secret
	state aes.Block
	//senss-lint:secret
	iv     aes.Block
	blocks uint64
}

// Resume reconstructs a MAC whose chain continues from a previously saved
// state value (SHU context swap-in, paper §4.2). Reset rewinds only to the
// resumed point.
func Resume(cipher crypto.BlockCipher, state aes.Block) *MAC {
	return &MAC{cipher: cipher, state: state, iv: state}
}

// New returns a MAC chained from iv under the given cipher.
//
// SENSS requires the authentication IV to differ from the encryption IV
// (paper §4.3, "Defending Type 2 attacks"); that policy is enforced by the
// caller (the SHU), not here.
func New(cipher crypto.BlockCipher, iv aes.Block) *MAC {
	return &MAC{cipher: cipher, state: iv, iv: iv}
}

// Update absorbs one input block into the chain and returns the new state.
//
// senss-lint:hotpath
func (m *MAC) Update(in aes.Block) aes.Block {
	m.state = m.cipher.Encrypt(m.state.XOR(in))
	m.blocks++
	return m.state
}

// Sum returns the current chain value (the full-width MAC).
func (m *MAC) Sum() aes.Block { return m.state }

// Tag returns the n-byte prefix of the current chain value, the "m-bit
// prefix of O_n" of Eq. (1). n must be in (0, BlockSize].
func (m *MAC) Tag(n int) []byte {
	s := m.Sum()
	out := make([]byte, n)
	copy(out, s[:n])
	return out
}

// Blocks returns how many input blocks have been chained so far.
func (m *MAC) Blocks() uint64 { return m.blocks }

// Reset rewinds the chain to its initial vector.
func (m *MAC) Reset() {
	m.state = m.iv
	m.blocks = 0
}

// Clone returns an independent copy of the chain (used by tests and by the
// attack analyzer to fork "what the sender saw" vs "what a victim saw").
func (m *MAC) Clone() *MAC {
	c := *m
	return &c
}

// Sum computes the one-shot CBC-MAC of msg (padded with zeros to a block
// multiple) under cipher and iv. Convenience for tests and for the program
// dispatcher's package signature.
func Sum(cipher crypto.BlockCipher, iv aes.Block, msg []byte) aes.Block {
	m := New(cipher, iv)
	var b aes.Block
	for len(msg) > 0 {
		n := copy(b[:], msg)
		for i := n; i < len(b); i++ {
			b[i] = 0
		}
		m.Update(b)
		msg = msg[n:]
	}
	return m.Sum()
}

// Zeroize wipes the chain state, the initial vector, and the block count,
// and drops the cipher reference. The chain value is secret material — it
// authenticates future group messages — so it must not survive group
// release. The MAC is unusable afterwards.
func (m *MAC) Zeroize() {
	m.state = aes.Block{}
	m.iv = aes.Block{}
	m.blocks = 0
	m.cipher = nil
}
