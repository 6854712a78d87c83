package mem

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"senss/internal/rng"
)

func TestWordRoundTrip(t *testing.T) {
	s := New()
	s.WriteWord(0x100, 0xdeadbeefcafef00d)
	if got := s.ReadWord(0x100); got != 0xdeadbeefcafef00d {
		t.Errorf("ReadWord = %#x", got)
	}
	if got := s.ReadWord(0x108); got != 0 {
		t.Errorf("untouched word = %#x, want 0", got)
	}
}

func TestWordsWithinLineIndependent(t *testing.T) {
	s := New()
	for i := uint64(0); i < 8; i++ {
		s.WriteWord(0x200+i*8, i+1)
	}
	for i := uint64(0); i < 8; i++ {
		if got := s.ReadWord(0x200 + i*8); got != i+1 {
			t.Errorf("word %d = %d", i, got)
		}
	}
}

func TestLineRoundTrip(t *testing.T) {
	s := New()
	src := make([]byte, LineSize)
	rng.New(1).Read(src)
	s.WriteLine(0x310, src) // unaligned addr maps to its containing line
	dst := make([]byte, LineSize)
	s.ReadLine(0x300, dst)
	if !bytes.Equal(src, dst) {
		t.Error("line round trip failed")
	}
}

func TestLineAddr(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0}, {63, 0}, {64, 64}, {0x1234, 0x1200},
	} {
		if got := LineAddr(c.in); got != c.want {
			t.Errorf("LineAddr(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestUnalignedWordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned access did not panic")
		}
	}()
	New().ReadWord(0x101)
}

func TestTamper(t *testing.T) {
	s := New()
	s.WriteWord(0x400, 0xFF)
	s.Tamper(0x400, 0x01)
	if got := s.ReadWord(0x400); got != 0xFE {
		t.Errorf("after tamper = %#x, want 0xFE", got)
	}
}

func TestTouched(t *testing.T) {
	s := New()
	s.WriteWord(0x0, 1)
	s.WriteWord(0x40, 2)
	s.WriteWord(0x48, 3) // same line as 0x40
	touched := s.Touched()
	if len(touched) != 2 {
		t.Errorf("Touched = %v, want two lines", touched)
	}
}

func TestAccessCounters(t *testing.T) {
	s := New()
	buf := make([]byte, LineSize)
	s.ReadLine(0, buf)
	s.WriteLine(0, buf)
	s.WriteLine(64, buf)
	if s.Reads != 1 || s.Writes != 2 {
		t.Errorf("counters = %d/%d, want 1/2", s.Reads, s.Writes)
	}
}

func TestLineBufferHelpers(t *testing.T) {
	f := func(v uint64, off8 uint8) bool {
		off := uint64(off8%8) * 8
		line := make([]byte, LineSize)
		WriteWordToLine(line, off, v)
		return ReadWordFromLine(line, off) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordIsLittleEndian(t *testing.T) {
	s := New()
	s.WriteWord(0, 0x0102030405060708)
	buf := make([]byte, LineSize)
	s.ReadLine(0, buf)
	if buf[0] != 0x08 || buf[7] != 0x01 {
		t.Errorf("byte layout %x not little-endian", buf[:8])
	}
}

// TestSparseHighAddresses pins the page directory's cost for the
// integrity tree's address layout: one line per tree level at
// 1<<40 + k<<34 plus a few low data lines. A flat page table indexed from
// zero allocates hundreds of MB here; the directory holds only the top
// slice and the leaves and pages touched. Touched() must stay exact and ascending across page,
// leaf and directory boundaries.
func TestSparseHighAddresses(t *testing.T) {
	leafSpan := uint64(LineSize) << (pageLineBits + leafPageBits) // 128 MiB
	want := []uint64{
		0,
		pageLines*LineSize - LineSize, // last line of page 0
		pageLines * LineSize,          // first line of page 1
		leafSpan - LineSize,           // last line of leaf 0
		leafSpan,                      // first line of leaf 1
	}
	for k := uint64(0); k <= 5; k++ {
		want = append(want, 1<<40+k<<34)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New()
	line := make([]byte, LineSize)
	for i := len(want) - 1; i >= 0; i-- { // descending: exercises directory growth
		line[0] = byte(i + 1)
		s.WriteLine(want[i], line)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 2<<20 {
		t.Errorf("writing %d lines allocated %d bytes, want < 2 MiB", len(want), d)
	}

	if got := s.Touched(); !slices.Equal(got, want) {
		t.Errorf("Touched = %#x, want %#x", got, want)
	}
	for i, a := range want {
		s.ReadLine(a, line)
		if line[0] != byte(i+1) {
			t.Errorf("line %#x reads %d, want %d", a, line[0], i+1)
		}
	}
}
