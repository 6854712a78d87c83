// Package aes implements the AES-128 block cipher (FIPS-197) from scratch.
//
// SENSS models a hardware AES core on every processor's security hardware
// unit (SHU).  The simulator charges modeled cycles for each invocation
// (80 cycles latency, 3.2 GB/s throughput in the paper's configuration);
// this package supplies the actual transformation so that bus masks, MACs,
// and memory pads are real values and attacks are genuinely detected.
//
// The cipher keeps the state as four big-endian uint32 columns, row 0 in
// the most significant byte, so rotating a column left by 8 moves row i+1
// into row i. SubBytes and ShiftRows are fused into four S-box lookups per
// column, and MixColumns runs on a whole column in one register. The
// 256-byte sbox and invSbox are the only tables the state indexes.
package aes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// rounds is the number of AES-128 rounds.
const rounds = 10

// Block is an AES block. The value type makes it convenient to keep blocks
// in tables (group info table entries, mask banks) without aliasing.
type Block [BlockSize]byte

// XOR returns b ⊕ o. This is the one-cycle OTP operation of the SENSS
// bus-encryption datapath, computed as two 64-bit XORs (byte order does
// not matter to XOR, so the host's native little-endian loads serve).
//
//senss-lint:hotpath
func (b Block) XOR(o Block) Block {
	var r Block
	le := binary.LittleEndian
	le.PutUint64(r[0:8], le.Uint64(b[0:8])^le.Uint64(o[0:8]))
	le.PutUint64(r[8:16], le.Uint64(b[8:16])^le.Uint64(o[8:16]))
	return r
}

// IsZero reports whether every byte of b is zero.
func (b Block) IsZero() bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// String renders the block as lowercase hex.
func (b Block) String() string {
	return fmt.Sprintf("%x", b[:])
}

// BlockFromUint64 packs two 64-bit words big-endian into a block.
// Handy for folding PIDs and counters into cipher inputs.
//
//senss-lint:hotpath
func BlockFromUint64(hi, lo uint64) Block {
	var b Block
	binary.BigEndian.PutUint64(b[0:8], hi)
	binary.BigEndian.PutUint64(b[8:16], lo)
	return b
}

// Uint64s unpacks the block into two big-endian 64-bit words.
func (b Block) Uint64s() (hi, lo uint64) {
	return binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
}

// sbox is the FIPS-197 S-box.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// invSbox is the inverse S-box, derived from sbox at init.
var invSbox [256]byte

func init() {
	for i, v := range sbox {
		invSbox[v] = byte(i)
	}
}

// rcon holds the round constants for key expansion.
var rcon = [11]byte{0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// Cipher is an expanded AES-128 key schedule.
type Cipher struct {
	//senss-lint:secret
	enc [4 * (rounds + 1)]uint32
	//senss-lint:secret
	dec [4 * (rounds + 1)]uint32
}

// ErrKeySize is returned by New when the key is not 16 bytes.
var ErrKeySize = errors.New("aes: key must be 16 bytes")

// New expands key into an AES-128 cipher.
func New(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, ErrKeySize
	}
	c := new(Cipher)
	c.expand(key)
	return c, nil
}

// NewFromBlock expands a Block-typed key. It cannot fail because a Block is
// always KeySize bytes.
//
//senss-lint:ignore droppederr a Block is always KeySize bytes, the one condition New rejects
func NewFromBlock(key Block) *Cipher {
	c, _ := New(key[:])
	return c
}

func (c *Cipher) expand(key []byte) {
	nk := KeySize / 4
	for i := 0; i < nk; i++ {
		c.enc[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	for i := nk; i < len(c.enc); i++ {
		t := c.enc[i-1]
		if i%nk == 0 {
			// SubWord(RotWord(t)): subShift with t feeding every row.
			t = bits.RotateLeft32(t, 8)
			t = subShift(&sbox, t, t, t, t) ^ uint32(rcon[i/nk])<<24
		}
		c.enc[i] = c.enc[i-nk] ^ t
	}
	// The equivalent inverse cipher key schedule: round keys in reverse
	// order with InvMixColumns applied to the middle rounds.
	n := len(c.enc)
	for i := 0; i < n; i += 4 {
		for j := 0; j < 4; j++ {
			w := c.enc[n-4-i+j]
			if i > 0 && i < n-4 {
				w = invMixColumnWord(w)
			}
			c.dec[i+j] = w
		}
	}
}

// subShift builds one output column of SubBytes∘ShiftRows from the input
// columns that feed its rows: row r comes from the r-th argument. Called
// as subShift(box, s_c, s_{c+1}, s_{c+2}, s_{c+3}) it is the forward
// ShiftRows; with s_{c-r} and invSbox it is the inverse. The four box
// loads are the only state-indexed memory accesses of the cipher.
//
//senss-lint:hotpath
func subShift(box *[256]byte, a, b, c, d uint32) uint32 {
	return uint32(box[byte(a>>24)])<<24 |
		uint32(box[byte(b>>16)])<<16 |
		uint32(box[byte(c>>8)])<<8 |
		uint32(box[byte(d)])
}

// xtime4 multiplies each of the four bytes of x by x (i.e., {02}) in
// GF(2^8) with the AES polynomial, without branching: each byte's high
// bit selects the reduction constant for that byte alone.
//
//senss-lint:hotpath
func xtime4(x uint32) uint32 {
	return (x&0x7f7f7f7f)<<1 ^ (x>>7&0x01010101)*0x1b
}

// mixColumnWord multiplies one column by the MixColumns matrix in the
// FIPS-197 §4.2.1 form b_i = a_i ⊕ t ⊕ xtime(a_i ⊕ a_{i+1}), with
// t = a0⊕a1⊕a2⊕a3, computed on all four rows at once.
//
//senss-lint:hotpath
func mixColumnWord(w uint32) uint32 {
	x := w ^ bits.RotateLeft32(w, 8)
	t := x ^ bits.RotateLeft32(x, 16)
	return w ^ t ^ xtime4(x)
}

// invMixColumnWord multiplies one column by the InvMixColumns matrix. That
// matrix factors as the MixColumns matrix times {05 00 04 00} (The Design
// of Rijndael §4.1.3), so a two-xtime pre-step reuses mixColumnWord.
func invMixColumnWord(w uint32) uint32 {
	u := xtime4(xtime4(w ^ bits.RotateLeft32(w, 16)))
	return mixColumnWord(w ^ u)
}

// Encrypt computes the AES-128 encryption of src.
//
//senss-lint:hotpath
func (c *Cipher) Encrypt(src Block) Block {
	k := &c.enc
	s0, s1, s2, s3 := columns(src)
	s0, s1, s2, s3 = s0^k[0], s1^k[1], s2^k[2], s3^k[3]
	for r := 4; r < 4*rounds; r += 4 {
		s0, s1, s2, s3 =
			mixColumnWord(subShift(&sbox, s0, s1, s2, s3))^k[r],
			mixColumnWord(subShift(&sbox, s1, s2, s3, s0))^k[r+1],
			mixColumnWord(subShift(&sbox, s2, s3, s0, s1))^k[r+2],
			mixColumnWord(subShift(&sbox, s3, s0, s1, s2))^k[r+3]
	}
	return fromColumns(
		subShift(&sbox, s0, s1, s2, s3)^k[4*rounds],
		subShift(&sbox, s1, s2, s3, s0)^k[4*rounds+1],
		subShift(&sbox, s2, s3, s0, s1)^k[4*rounds+2],
		subShift(&sbox, s3, s0, s1, s2)^k[4*rounds+3])
}

// Decrypt computes the AES-128 decryption of src with the equivalent
// inverse cipher (FIPS-197 §5.3.5).
func (c *Cipher) Decrypt(src Block) Block {
	k := &c.dec
	s0, s1, s2, s3 := columns(src)
	s0, s1, s2, s3 = s0^k[0], s1^k[1], s2^k[2], s3^k[3]
	for r := 4; r < 4*rounds; r += 4 {
		s0, s1, s2, s3 =
			invMixColumnWord(subShift(&invSbox, s0, s3, s2, s1))^k[r],
			invMixColumnWord(subShift(&invSbox, s1, s0, s3, s2))^k[r+1],
			invMixColumnWord(subShift(&invSbox, s2, s1, s0, s3))^k[r+2],
			invMixColumnWord(subShift(&invSbox, s3, s2, s1, s0))^k[r+3]
	}
	return fromColumns(
		subShift(&invSbox, s0, s3, s2, s1)^k[4*rounds],
		subShift(&invSbox, s1, s0, s3, s2)^k[4*rounds+1],
		subShift(&invSbox, s2, s1, s0, s3)^k[4*rounds+2],
		subShift(&invSbox, s3, s2, s1, s0)^k[4*rounds+3])
}

// columns loads a block as four column words.
//
//senss-lint:hotpath
func columns(b Block) (s0, s1, s2, s3 uint32) {
	be := binary.BigEndian
	return be.Uint32(b[0:4]), be.Uint32(b[4:8]), be.Uint32(b[8:12]), be.Uint32(b[12:16])
}

// fromColumns stores four column words back into a block.
//
//senss-lint:hotpath
func fromColumns(s0, s1, s2, s3 uint32) Block {
	var b Block
	be := binary.BigEndian
	be.PutUint32(b[0:4], s0)
	be.PutUint32(b[4:8], s1)
	be.PutUint32(b[8:12], s2)
	be.PutUint32(b[12:16], s3)
	return b
}

// Zeroize overwrites the expanded key schedule. The round keys are the
// only key-derived material a Cipher holds, so after Zeroize the group
// session key is unrecoverable from this object (paper §5.2: session
// state must not outlive the group). The cipher is unusable afterwards —
// Encrypt/Decrypt degenerate to the all-zero schedule.
func (c *Cipher) Zeroize() {
	for i := range c.enc {
		c.enc[i] = 0
	}
	for i := range c.dec {
		c.dec[i] = 0
	}
}
