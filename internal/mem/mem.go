// Package mem models the shared main memory of the SMP: a sparse,
// line-granular backing store plus the DRAM timing parameters.
//
// The store holds whatever bytes the system writes — plaintext in an
// unprotected machine, ciphertext when the memsec layer wraps it — so a
// simulated adversary reading or flipping memory sees exactly what a probe
// on a real DIMM would.
package mem

import "fmt"

// LineSize is the storage granularity in bytes, matching the L2 line size
// of the paper's configuration (Figure 5).
const LineSize = 64

// WordSize is the access granularity of simulated programs.
const WordSize = 8

// Line is one memory line.
type Line [LineSize]byte

// Paging geometry: lines live in fixed 512-line (32 KiB) pages, reached
// through a sparse two-level directory. The top slice is indexed by
// page number >> leafPageBits; each entry is a fixed leaf of 4096 page
// pointers (32 KiB of pointers covering 128 MiB of simulated space).
// Program data sits low, from the machine's bump allocator, but the
// integrity tree lives at 1<<40 and above, so a flat page table would
// span 2^25 entries; the directory only ever holds the top slice up to
// the highest leaf plus the leaves actually touched. Lookup is three
// shifts and three loads instead of a map probe on every fetch and
// write-back.
const (
	pageLineBits = 9
	pageLines    = 1 << pageLineBits

	leafPageBits = 12
	leafPages    = 1 << leafPageBits
)

// page is one 32 KiB slab of lines plus the touched bitmap that keeps
// Touched() exact (the sparse map used to record first access for free).
type page struct {
	lines   [pageLines]Line
	touched [pageLines / 64]uint64
}

// leaf is one second-level directory node; nil entries are untouched pages.
type leaf [leafPages]*page

// Store is a sparse line-addressed memory. The zero value is empty and
// ready to use via New.
type Store struct {
	dir []*leaf // indexed by page number >> leafPageBits; nil = untouched

	// Reads and Writes count line-granular accesses (for stats).
	Reads  uint64
	Writes uint64
}

// New returns an empty store.
func New() *Store {
	return &Store{}
}

// LineAddr returns the line-aligned address containing addr.
//
//senss-lint:hotpath
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// line returns the line containing addr, allocating its page zeroed on
// demand and recording the touch.
//
//senss-lint:hotpath
func (s *Store) line(addr uint64) *Line {
	li := addr / LineSize
	pi := li >> pageLineBits
	di := pi >> leafPageBits
	if di >= uint64(len(s.dir)) {
		//senss-lint:ignore hotpath first-touch growth: the directory reaches its final size once the workload's footprint and its integrity tree are written
		s.dir = append(s.dir, make([]*leaf, di+1-uint64(len(s.dir)))...)
	}
	l := s.dir[di]
	if l == nil {
		//senss-lint:ignore hotpath first-touch growth: each leaf is allocated once, then reused for the run
		l = new(leaf)
		s.dir[di] = l
	}
	lp := pi & (leafPages - 1)
	p := l[lp]
	if p == nil {
		//senss-lint:ignore hotpath first-touch growth: each 32 KiB page is allocated once, then reused for the run
		p = new(page)
		l[lp] = p
	}
	off := li & (pageLines - 1)
	p.touched[off>>6] |= 1 << (off & 63)
	return &p.lines[off]
}

// ReadLine copies the line containing addr into dst.
//
//senss-lint:hotpath
func (s *Store) ReadLine(addr uint64, dst []byte) {
	if len(dst) != LineSize {
		panic(fmt.Sprintf("mem: ReadLine dst size %d", len(dst)))
	}
	s.Reads++
	copy(dst, s.line(addr)[:])
}

// WriteLine overwrites the line containing addr with src.
//
//senss-lint:hotpath
func (s *Store) WriteLine(addr uint64, src []byte) {
	if len(src) != LineSize {
		panic(fmt.Sprintf("mem: WriteLine src size %d", len(src)))
	}
	s.Writes++
	copy(s.line(addr)[:], src)
}

// ReadWord returns the 8-byte little-endian word at addr (must be aligned).
// It bypasses timing — used for initialization and result validation.
func (s *Store) ReadWord(addr uint64) uint64 {
	checkAlign(addr)
	l := s.line(addr)
	off := addr % LineSize
	var v uint64
	for i := 0; i < WordSize; i++ {
		v |= uint64(l[off+uint64(i)]) << (8 * i)
	}
	return v
}

// WriteWord stores an 8-byte little-endian word at addr (must be aligned).
// It bypasses timing — used for initialization.
func (s *Store) WriteWord(addr uint64, v uint64) {
	checkAlign(addr)
	l := s.line(addr)
	off := addr % LineSize
	for i := 0; i < WordSize; i++ {
		l[off+uint64(i)] = byte(v >> (8 * i))
	}
}

// Tamper XORs mask into the byte at addr — the physical memory attack used
// by the integrity experiments.
func (s *Store) Tamper(addr uint64, mask byte) {
	l := s.line(addr)
	l[addr%LineSize] ^= mask
}

// Touched returns the addresses of all allocated lines in ascending order,
// so callers that derive state from the line set (memsec encryption sweep,
// integrity tree construction) stay bit-reproducible.
func (s *Store) Touched() []uint64 {
	var out []uint64
	for di, l := range s.dir {
		if l == nil {
			continue
		}
		for lpi, p := range l {
			if p == nil {
				continue
			}
			pi := uint64(di)<<leafPageBits | uint64(lpi)
			for w, bits := range p.touched {
				for b := 0; bits != 0; b++ {
					if bits&1 != 0 {
						li := pi<<pageLineBits | uint64(w<<6|b)
						out = append(out, li*LineSize)
					}
					bits >>= 1
				}
			}
		}
	}
	return out
}

func checkAlign(addr uint64) {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned word access at %#x", addr))
	}
}

// ReadWordFromLine extracts the little-endian word at byte offset off of a
// line buffer. Shared helper for caches and nodes.
//
//senss-lint:hotpath
func ReadWordFromLine(line []byte, off uint64) uint64 {
	var v uint64
	for i := 0; i < WordSize; i++ {
		v |= uint64(line[off+uint64(i)]) << (8 * i)
	}
	return v
}

// WriteWordToLine stores a little-endian word at byte offset off of a line
// buffer.
//
//senss-lint:hotpath
func WriteWordToLine(line []byte, off uint64, v uint64) {
	for i := 0; i < WordSize; i++ {
		line[off+uint64(i)] = byte(v >> (8 * i))
	}
}
