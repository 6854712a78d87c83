package crypto

import (
	stdaes "crypto/aes"
	"crypto/cipher"

	"senss/internal/crypto/aes"
)

// stdlibCipher is the "stdlib" backend: crypto/aes behind the
// BlockCipher interface. On amd64/arm64 the standard library dispatches
// to the hardware AES instructions, which is what makes this backend the
// fast path senss-farm bench-crypto measures.
//
// The in/out scratch blocks live on the (heap-allocated) struct because
// cipher.Block.Encrypt takes []byte through an interface: slicing a
// stack array at the call site would force it to escape on every block,
// and the pad-generation kernel in internal/memsec is a
// //senss-lint:hotpath route with a zero-alloc budget.
type stdlibCipher struct {
	// block holds crypto/aes's expanded key schedule.
	//senss-lint:secret
	block cipher.Block
	// in, out are per-call scratch; see the struct comment.
	in, out aes.Block
}

func newStdlibCipher(key aes.Block) BlockCipher {
	b, err := stdaes.NewCipher(key[:])
	if err != nil {
		// Unreachable: a 16-byte key is always valid AES-128.
		panic(err)
	}
	return &stdlibCipher{block: b}
}

// Encrypt computes AES-128 of src under the session key.
//
//senss-lint:hotpath
func (c *stdlibCipher) Encrypt(src aes.Block) aes.Block {
	if c.block == nil {
		return aes.Block{}
	}
	c.in = src
	c.block.Encrypt(c.out[:], c.in[:])
	return c.out
}

// Decrypt inverts Encrypt.
//
//senss-lint:hotpath
func (c *stdlibCipher) Decrypt(src aes.Block) aes.Block {
	if c.block == nil {
		return aes.Block{}
	}
	c.in = src
	c.block.Decrypt(c.out[:], c.in[:])
	return c.out
}

// Zeroize drops the key schedule and wipes the scratch blocks. The
// schedule itself lives inside crypto/aes's opaque cipher.Block; Go
// gives no way to overwrite it in place, so this backend's erasure is
// best-effort (unreferenced memory awaiting GC) — one reason the "ref"
// backend, whose schedule is wiped for real, remains the fidelity
// oracle (DESIGN.md §14).
func (c *stdlibCipher) Zeroize() {
	c.block = nil
	c.in = aes.Block{}
	c.out = aes.Block{}
}
