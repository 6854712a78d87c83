package aes

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"

	"senss/internal/rng"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func blockOf(t *testing.T, s string) Block {
	t.Helper()
	var b Block
	copy(b[:], mustHex(t, s))
	return b
}

// TestFIPS197AppendixC checks the AES-128 known-answer vector of FIPS-197
// Appendix C.1 in both directions.
func TestFIPS197AppendixC(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	pt := blockOf(t, "00112233445566778899aabbccddeeff")
	want := blockOf(t, "69c4e0d86a7b0430d8cdb78070b4c55a")

	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Encrypt(pt); got != want {
		t.Errorf("Encrypt = %s, want %s", got, want)
	}
	if got := c.Decrypt(want); got != pt {
		t.Errorf("Decrypt = %s, want %s", got, pt)
	}
}

// TestFIPS197AppendixB checks the worked example of FIPS-197 Appendix B.
func TestFIPS197AppendixB(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := blockOf(t, "3243f6a8885a308d313198a2e0370734")
	want := blockOf(t, "3925841d02dc09fbdc118597196a0b32")

	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Encrypt(pt); got != want {
		t.Errorf("Encrypt = %s, want %s", got, want)
	}
	if got := c.Decrypt(want); got != pt {
		t.Errorf("Decrypt = %s, want %s", got, pt)
	}
}

// TestSP80038AVectors checks the four AES-128-ECB known-answer blocks of
// NIST SP 800-38A Appendix F.1.1/F.1.2.
func TestSP80038AVectors(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	vectors := []struct{ pt, ct string }{
		{"6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"},
		{"ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"},
		{"30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"},
		{"f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"},
	}
	for i, v := range vectors {
		pt := blockOf(t, v.pt)
		want := blockOf(t, v.ct)
		if got := c.Encrypt(pt); got != want {
			t.Errorf("block %d: Encrypt = %s, want %s", i, got, want)
		}
		if got := c.Decrypt(want); got != pt {
			t.Errorf("block %d: Decrypt = %s, want %s", i, got, pt)
		}
	}
}

// TestEncryptChainStability pins a 1000-round encryption chain (a Monte
// Carlo-style self-consistency check: any regression in the key schedule
// or round functions changes the final value).
func TestEncryptChainStability(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	b := blockOf(t, "00112233445566778899aabbccddeeff")
	for i := 0; i < 1000; i++ {
		b = c.Encrypt(b)
	}
	// Invert the chain to prove Encrypt/Decrypt are exact inverses over
	// long compositions.
	for i := 0; i < 1000; i++ {
		b = c.Decrypt(b)
	}
	if b != blockOf(t, "00112233445566778899aabbccddeeff") {
		t.Errorf("1000-round chain did not invert: %s", b)
	}
}

func TestNewRejectsBadKeySizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 24, 32} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New(%d bytes): want error, got nil", n)
		}
	}
}

// TestRoundTripProperty checks Decrypt(Encrypt(x)) == x over random keys
// and blocks.
func TestRoundTripProperty(t *testing.T) {
	r := rng.New(1)
	f := func() bool {
		key := Block(r.Block16())
		pt := Block(r.Block16())
		c := NewFromBlock(key)
		return c.Decrypt(c.Encrypt(pt)) == pt
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestEncryptIsPermutation checks that distinct plaintexts never collide
// under one key (sampled).
func TestEncryptIsPermutation(t *testing.T) {
	r := rng.New(2)
	c := NewFromBlock(Block(r.Block16()))
	seen := make(map[Block]Block)
	for i := 0; i < 2000; i++ {
		pt := Block(r.Block16())
		ct := c.Encrypt(pt)
		if prev, ok := seen[ct]; ok && prev != pt {
			t.Fatalf("collision: %s and %s both encrypt to %s", prev, pt, ct)
		}
		seen[ct] = pt
	}
}

// TestAvalanche flips one plaintext bit and requires a substantial number
// of ciphertext bits to change (sanity, not a strict cryptographic test).
func TestAvalanche(t *testing.T) {
	r := rng.New(3)
	c := NewFromBlock(Block(r.Block16()))
	pt := Block(r.Block16())
	base := c.Encrypt(pt)
	flipped := pt
	flipped[0] ^= 1
	diff := c.Encrypt(flipped).XOR(base)
	n := 0
	for _, b := range diff {
		for ; b != 0; b &= b - 1 {
			n++
		}
	}
	if n < 30 {
		t.Errorf("only %d bits changed after 1-bit flip; want >= 30", n)
	}
}

func TestBlockHelpers(t *testing.T) {
	b := BlockFromUint64(0x0102030405060708, 0x090a0b0c0d0e0f10)
	hi, lo := b.Uint64s()
	if hi != 0x0102030405060708 || lo != 0x090a0b0c0d0e0f10 {
		t.Errorf("Uint64s = %x,%x", hi, lo)
	}
	if !bytes.Equal(b[:8], []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("big-endian packing wrong: %x", b[:8])
	}
	var z Block
	if !z.IsZero() {
		t.Error("zero block reported non-zero")
	}
	if b.IsZero() {
		t.Error("non-zero block reported zero")
	}
	if b.XOR(b) != z {
		t.Error("b XOR b != 0")
	}
}

func TestXORIsInvolution(t *testing.T) {
	f := func(a, b Block) bool { return a.XOR(b).XOR(b) == a }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	r := rng.New(4)
	c := NewFromBlock(Block(r.Block16()))
	pt := Block(r.Block16())
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		pt = c.Encrypt(pt)
	}
	_ = pt
}

func BenchmarkDecrypt(b *testing.B) {
	r := rng.New(5)
	c := NewFromBlock(Block(r.Block16()))
	ct := Block(r.Block16())
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		ct = c.Decrypt(ct)
	}
	_ = ct
}

// gmul multiplies a by b in GF(2^8) by the FIPS-197 §4.2 definition:
// shift-and-add over the bits of b, reducing by the AES polynomial.
func gmul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		if a&0x80 != 0 {
			a = a<<1 ^ 0x1b
		} else {
			a <<= 1
		}
		b >>= 1
	}
	return p
}

// mixColumnGmul and invMixColumnGmul are the FIPS-197 §5.1.3 and §5.3.3
// matrix products written with gmul.
func mixColumnGmul(c [4]byte) [4]byte {
	return [4]byte{
		gmul(c[0], 2) ^ gmul(c[1], 3) ^ c[2] ^ c[3],
		c[0] ^ gmul(c[1], 2) ^ gmul(c[2], 3) ^ c[3],
		c[0] ^ c[1] ^ gmul(c[2], 2) ^ gmul(c[3], 3),
		gmul(c[0], 3) ^ c[1] ^ c[2] ^ gmul(c[3], 2),
	}
}

func invMixColumnGmul(c [4]byte) [4]byte {
	return [4]byte{
		gmul(c[0], 14) ^ gmul(c[1], 11) ^ gmul(c[2], 13) ^ gmul(c[3], 9),
		gmul(c[0], 9) ^ gmul(c[1], 14) ^ gmul(c[2], 11) ^ gmul(c[3], 13),
		gmul(c[0], 13) ^ gmul(c[1], 9) ^ gmul(c[2], 14) ^ gmul(c[3], 11),
		gmul(c[0], 11) ^ gmul(c[1], 13) ^ gmul(c[2], 9) ^ gmul(c[3], 14),
	}
}

// The byte-wise FIPS-197 rounds below are the oracle for the word-sliced
// core: a 16-byte column-major state, one method per round step, and the
// xtime forms of MixColumns and InvMixColumns on [4]byte columns.

// xtime multiplies by x (i.e., {02}) in GF(2^8) with the AES polynomial.
func xtime(b byte) byte {
	return b<<1 ^ 0x1b&-(b>>7)
}

// mixColumn is the FIPS-197 §4.2.1 form: with t = a0⊕a1⊕a2⊕a3, each
// output byte is b_i = a_i ⊕ t ⊕ xtime(a_i ⊕ a_{i+1}).
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

// invMixColumn applies the {05 00 04 00} pre-step, then mixColumn.
func invMixColumn(col [4]byte) [4]byte {
	u := xtime(xtime(col[0] ^ col[2]))
	v := xtime(xtime(col[1] ^ col[3]))
	return mixColumn([4]byte{col[0] ^ u, col[1] ^ v, col[2] ^ u, col[3] ^ v})
}

// state is the AES state as a 4x4 column-major byte matrix, kept as 16
// bytes in column order (as FIPS-197 loads it).
type state [16]byte

func (s *state) addRoundKey(rk []uint32) {
	for c := 0; c < 4; c++ {
		w := rk[c]
		s[4*c+0] ^= byte(w >> 24)
		s[4*c+1] ^= byte(w >> 16)
		s[4*c+2] ^= byte(w >> 8)
		s[4*c+3] ^= byte(w)
	}
}

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

func (s *state) mixColumns() {
	for c := 0; c < 4; c++ {
		col := mixColumn([4]byte{s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]})
		copy(s[4*c:4*c+4], col[:])
	}
}

func (s *state) invMixColumns() {
	for c := 0; c < 4; c++ {
		col := invMixColumn([4]byte{s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]})
		copy(s[4*c:4*c+4], col[:])
	}
}

// encryptOracle is the FIPS-197 §5.1 Cipher over the byte state.
func encryptOracle(c *Cipher, src Block) Block {
	s := state(src)
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
	return Block(s)
}

// decryptOracle is the FIPS-197 §5.3 InvCipher over the byte state. It
// walks the encryption schedule backwards, so it shares nothing with the
// equivalent inverse cipher's dec schedule that Decrypt uses.
func decryptOracle(c *Cipher, src Block) Block {
	s := state(src)
	s.addRoundKey(c.enc[4*rounds : 4*rounds+4])
	for r := rounds - 1; r > 0; r-- {
		s.invShiftRows()
		s.invSubBytes()
		s.addRoundKey(c.enc[4*r : 4*r+4])
		s.invMixColumns()
	}
	s.invShiftRows()
	s.invSubBytes()
	s.addRoundKey(c.enc[0:4])
	return Block(s)
}

// decScheduleOracle derives the equivalent inverse cipher's schedule
// (FIPS-197 §5.3.5) from enc with the byte-wise invMixColumn.
func decScheduleOracle(c *Cipher) [4 * (rounds + 1)]uint32 {
	var dec [4 * (rounds + 1)]uint32
	n := len(c.enc)
	for i := 0; i < n; i += 4 {
		for j := 0; j < 4; j++ {
			w := c.enc[n-4-i+j]
			if i > 0 && i < n-4 {
				col := invMixColumn([4]byte(binary.BigEndian.AppendUint32(nil, w)))
				w = binary.BigEndian.Uint32(col[:])
			}
			dec[i+j] = w
		}
	}
	return dec
}

// TestWordCoreMatchesByteOracle checks the word-sliced Encrypt, Decrypt
// and dec schedule against the byte-wise FIPS-197 rounds over random keys
// and blocks.
func TestWordCoreMatchesByteOracle(t *testing.T) {
	r := rng.New(6)
	f := func() bool {
		c := NewFromBlock(Block(r.Block16()))
		pt := Block(r.Block16())
		return c.Encrypt(pt) == encryptOracle(c, pt) &&
			c.Decrypt(pt) == decryptOracle(c, pt) &&
			c.dec == decScheduleOracle(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// word packs a column big-endian, row 0 in the top byte, as the core does.
func word(col [4]byte) uint32 { return binary.BigEndian.Uint32(col[:]) }

// checkColumnMap checks a word-form column map against its gmul matrix
// product, and the byte-wise oracle against the same product. Both sides
// are GF(2)-linear maps on 32-bit columns, so agreeing on all 32
// single-bit columns proves them equal; a random sample guards the test
// itself.
func checkColumnMap(t *testing.T, name string, wordMap func(uint32) uint32, byteMap, gmulMap func([4]byte) [4]byte) {
	t.Helper()
	for bit := 0; bit < 32; bit++ {
		var col [4]byte
		col[bit/8] = 1 << (bit % 8)
		want := gmulMap(col)
		if got := wordMap(word(col)); got != word(want) {
			t.Errorf("%sWord(%x) = %08x, want %x", name, col, got, want)
		}
		if got := byteMap(col); got != want {
			t.Errorf("%s(%x) = %x, want %x", name, col, got, want)
		}
	}
	f := func(col [4]byte) bool {
		want := gmulMap(col)
		return wordMap(word(col)) == word(want) && byteMap(col) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixColumnWordMatchesGmul(t *testing.T) {
	checkColumnMap(t, "mixColumn", mixColumnWord, mixColumn, mixColumnGmul)
}

func TestInvMixColumnWordMatchesGmul(t *testing.T) {
	checkColumnMap(t, "invMixColumn", invMixColumnWord, invMixColumn, invMixColumnGmul)
	f := func(w uint32) bool { return invMixColumnWord(mixColumnWord(w)) == w }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestXtimeMatchesGmul checks the byte oracle's xtime on every byte, and
// the word core's xtime4 on every byte in every lane.
func TestXtimeMatchesGmul(t *testing.T) {
	for b := 0; b < 256; b++ {
		want := gmul(byte(b), 2)
		if got := xtime(byte(b)); got != want {
			t.Errorf("xtime(%#02x) = %#02x, want %#02x", b, got, want)
		}
		for lane := 0; lane < 32; lane += 8 {
			if got := xtime4(uint32(b) << lane); got != uint32(want)<<lane {
				t.Errorf("xtime4(%#08x) = %#08x, want %#08x", uint32(b)<<lane, got, uint32(want)<<lane)
			}
		}
	}
}

// TestXORMatchesByteLoop checks the word-wise Block.XOR against a byte loop.
func TestXORMatchesByteLoop(t *testing.T) {
	f := func(a, b Block) bool {
		var want Block
		for i := range a {
			want[i] = a[i] ^ b[i]
		}
		return a.XOR(b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCoreZeroAlloc pins the cipher and the pad XOR at zero allocations:
// they run on every bus message and memory pad, and a slice or an escape
// introduced by a later refactor would show up here first.
func TestCoreZeroAlloc(t *testing.T) {
	r := rng.New(7)
	c := NewFromBlock(Block(r.Block16()))
	b, o := Block(r.Block16()), Block(r.Block16())
	for name, fn := range map[string]func(){
		"Encrypt": func() { b = c.Encrypt(b) },
		"Decrypt": func() { b = c.Decrypt(b) },
		"XOR":     func() { b = b.XOR(o) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, n)
		}
	}
}
