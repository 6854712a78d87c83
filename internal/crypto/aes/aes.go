// Package aes implements the AES-128 block cipher (FIPS-197) from scratch.
//
// SENSS models a hardware AES core on every processor's security hardware
// unit (SHU).  The simulator charges modeled cycles for each invocation
// (80 cycles latency, 3.2 GB/s throughput in the paper's configuration);
// this package supplies the actual transformation so that bus masks, MACs,
// and memory pads are real values and attacks are genuinely detected.
package aes

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// bus-encryption datapath.
//
//senss-lint:hotpath
func (b Block) XOR(o Block) Block {
	var r Block
	for i := range b {
		r[i] = b[i] ^ o[i]
	}
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

// xtime multiplies by x (i.e., {02}) in GF(2^8) with the AES polynomial,
// without branching: the reduction constant is masked in when the high bit
// shifts out.
//
//senss-lint:hotpath
func xtime(b byte) byte {
	return b<<1 ^ 0x1b&-(b>>7)
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

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 |
		uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 |
		uint32(sbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func (c *Cipher) expand(key []byte) {
	nk := KeySize / 4
	for i := 0; i < nk; i++ {
		c.enc[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	for i := nk; i < len(c.enc); i++ {
		t := c.enc[i-1]
		if i%nk == 0 {
			t = subWord(rotWord(t)) ^ uint32(rcon[i/nk])<<24
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

func invMixColumnWord(w uint32) uint32 {
	var col [4]byte
	binary.BigEndian.PutUint32(col[:], w)
	out := invMixColumn(col)
	return binary.BigEndian.Uint32(out[:])
}

// mixColumn multiplies one state column by the MixColumns matrix in the
// FIPS-197 §4.2.1 form: with t = a0⊕a1⊕a2⊕a3, each output byte is
// b_i = a_i ⊕ t ⊕ xtime(a_i ⊕ a_{i+1}).
//
//senss-lint:hotpath
func mixColumn(col [4]byte) [4]byte {
	a0, a1, a2, a3 := col[0], col[1], col[2], col[3]
	t := a0 ^ a1 ^ a2 ^ a3
	return [4]byte{
		a0 ^ t ^ xtime(a0^a1),
		a1 ^ t ^ xtime(a1^a2),
		a2 ^ t ^ xtime(a2^a3),
		a3 ^ t ^ xtime(a3^a0),
	}
}

// invMixColumn multiplies one column by the InvMixColumns matrix. That
// matrix factors as the MixColumns matrix times {05 00 04 00} (The Design
// of Rijndael §4.1.3), so a two-xtime pre-step reuses mixColumn.
func invMixColumn(col [4]byte) [4]byte {
	u := xtime(xtime(col[0] ^ col[2]))
	v := xtime(xtime(col[1] ^ col[3]))
	return mixColumn([4]byte{col[0] ^ u, col[1] ^ v, col[2] ^ u, col[3] ^ v})
}

// state is the AES state as a 4x4 column-major byte matrix, kept as 16 bytes
// in column order (as FIPS-197 loads it).
type state [16]byte

//senss-lint:hotpath
func (s *state) addRoundKey(rk []uint32) {
	for c := 0; c < 4; c++ {
		w := rk[c]
		s[4*c+0] ^= byte(w >> 24)
		s[4*c+1] ^= byte(w >> 16)
		s[4*c+2] ^= byte(w >> 8)
		s[4*c+3] ^= byte(w)
	}
}

//senss-lint:hotpath
func (s *state) subBytes() {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func (s *state) invSubBytes() {
	for i := range s {
		s[i] = invSbox[s[i]]
	}
}

// shiftRows rotates row r left by r. Row r lives at indices r, r+4, r+8, r+12.
//
//senss-lint:hotpath
func (s *state) shiftRows() {
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

func (s *state) invShiftRows() {
	s[1], s[5], s[9], s[13] = s[13], s[1], s[5], s[9]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[7], s[11], s[15], s[3]
}

//senss-lint:hotpath
func (s *state) mixColumns() {
	for c := 0; c < 4; c++ {
		col := [4]byte{s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]}
		out := mixColumn(col)
		copy(s[4*c:4*c+4], out[:])
	}
}

func (s *state) invMixColumns() {
	for c := 0; c < 4; c++ {
		col := [4]byte{s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]}
		out := invMixColumn(col)
		copy(s[4*c:4*c+4], out[:])
	}
}

// Encrypt computes the AES-128 encryption of src.
//
//senss-lint:hotpath
func (c *Cipher) Encrypt(src Block) Block {
	var s state
	copy(s[:], src[:])
	s.addRoundKey(c.enc[0:4])
	for r := 1; r < rounds; r++ {
		s.subBytes()
		s.shiftRows()
		s.mixColumns()
		s.addRoundKey(c.enc[4*r : 4*r+4])
	}
	s.subBytes()
	s.shiftRows()
	s.addRoundKey(c.enc[4*rounds : 4*rounds+4])
	var dst Block
	copy(dst[:], s[:])
	return dst
}

// Decrypt computes the AES-128 decryption of src.
func (c *Cipher) Decrypt(src Block) Block {
	var s state
	copy(s[:], src[:])
	s.addRoundKey(c.dec[0:4])
	for r := 1; r < rounds; r++ {
		s.invSubBytes()
		s.invShiftRows()
		s.invMixColumns()
		s.addRoundKey(c.dec[4*r : 4*r+4])
	}
	s.invSubBytes()
	s.invShiftRows()
	s.addRoundKey(c.dec[4*rounds : 4*rounds+4])
	var dst Block
	copy(dst[:], s[:])
	return dst
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
