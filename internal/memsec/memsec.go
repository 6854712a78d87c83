// Package memsec implements the "fast memory encryption" cache-to-memory
// protection SENSS integrates (paper §2.1, §6.1, after Suh et al. and Yang
// et al.): every memory line is stored as ciphertext — plaintext XOR a pad
// derived as AES_K(address ‖ sequence-number) — with the sequence number
// bumped on every writeback so pads are never reused for new data.
//
// Each processor caches (address → sequence) entries in a pad cache / SNC;
// a hit lets pad generation fully overlap the DRAM access (zero exposed
// latency), a miss serializes the AES behind the fetch.  Pad changes are
// propagated with the write-invalidate messages the paper adds to the bus
// (PadInv on writeback, PadReq on a stale fetch — bus command encodings
// "01" and "10" of §7.1).
package memsec

import (
	"senss/internal/bus"
	"senss/internal/crypto"
	"senss/internal/crypto/aes"
	"senss/internal/mem"
)

// Params configures the layer.
type Params struct {
	AESLatency uint64 // pad generation latency when not overlapped
	PerfectSNC bool   // sequence-number cache never misses (paper §7.7)
	PadEntries int    // per-processor pad cache capacity when not perfect

	// WriteUpdate selects the §6.1 "write update" pad-coherence variant:
	// a writeback broadcasts the fresh sequence number (PadUpd) and every
	// other processor's pad entry is refreshed in place, so later fetches
	// never miss on staleness. The default is the paper's choice, "write
	// invalidate" (PadInv + on-demand PadReq).
	WriteUpdate bool
}

// Stats counts pad activity.
type Stats struct {
	PadHits     uint64
	PadMisses   uint64
	Encrypts    uint64
	Decrypts    uint64
	SeqBumps    uint64
	Invalidates uint64 // PadInv broadcasts issued
	Requests    uint64 // PadReq transactions issued
}

// padCache is one processor's (address → seen-sequence) cache with LRU
// replacement. Entries are stored by value: the steady state hits get/put
// once per protected memory access, and a pointer-valued map would
// heap-allocate an entry per insertion (hotpath discipline, DESIGN.md §13).
type padCache struct {
	entries  map[uint64]padEntry
	capacity int
	tick     uint64
}

type padEntry struct {
	seq uint64
	lru uint64
}

func newPadCache(capacity int) *padCache {
	return &padCache{entries: make(map[uint64]padEntry), capacity: capacity}
}

// senss-lint:hotpath
func (c *padCache) get(addr uint64) (uint64, bool) {
	e, ok := c.entries[addr]
	if !ok {
		return 0, false
	}
	c.tick++
	e.lru = c.tick
	c.entries[addr] = e
	return e.seq, true
}

// senss-lint:hotpath
func (c *padCache) put(addr, seq uint64) {
	if e, ok := c.entries[addr]; ok {
		e.seq = seq
		c.tick++
		e.lru = c.tick
		c.entries[addr] = e
		return
	}
	if c.capacity > 0 && len(c.entries) >= c.capacity {
		var victim uint64
		var oldest uint64 = ^uint64(0)
		// Min-accumulation over the total order (lru, addr): the result is
		// identical for every visit order, so map iteration is safe here.
		// The address tie-break keeps that true even if lru ticks were ever
		// to collide. The scan is also bounded by the pad-cache capacity,
		// so the hotpath waiver covers a short, allocation-free loop.
		//senss-lint:ignore determinism,hotpath min over the total order (lru, addr) is iteration-order-independent, bounded by capacity, and allocation-free
		for a, e := range c.entries {
			if e.lru < oldest || (e.lru == oldest && a < victim) {
				oldest, victim = e.lru, a
			}
		}
		delete(c.entries, victim)
	}
	c.tick++
	c.entries[addr] = padEntry{seq: seq, lru: c.tick}
}

// senss-lint:hotpath
func (c *padCache) drop(addr uint64) { delete(c.entries, addr) }

// Layer is the memory-encryption layer. It wraps the raw backing store as
// the bus.MemoryPort, holding the authoritative per-line sequence numbers.
type Layer struct {
	params  Params
	cipher  crypto.BlockCipher
	backing *mem.Store
	seq     map[uint64]uint64 // line address → current sequence (≥1 once touched)
	pads    []*padCache       // per processor

	// pendingReq/pendingSet record, per processor, the line whose fetch
	// just missed the pad cache; the node hook turns it into a PadReq
	// transaction. Flat per-PID slots, not a map: the slot is written and
	// consumed once per pad miss on the fill path.
	pendingReq []uint64
	pendingSet []bool

	// padScratch and storeScratch are reusable line-sized buffers for pad
	// material and ciphertext staging: without them every protected fetch
	// and writeback heap-allocates (hotpath discipline, DESIGN.md §13).
	// They are safe to share per layer because xorPad and Store never
	// nest within themselves.
	padScratch   []byte
	storeScratch []byte

	Stats Stats
}

// New creates the layer for nprocs processors over backing, deriving pads
// under cipher (any crypto.BlockCipher backend; the SHU key is bound at
// construction time by the caller).
func New(backing *mem.Store, cipher crypto.BlockCipher, nprocs int, params Params) *Layer {
	l := &Layer{
		params:     params,
		cipher:     cipher,
		backing:    backing,
		seq:        make(map[uint64]uint64),
		pendingReq: make([]uint64, nprocs),
		pendingSet: make([]bool, nprocs),
	}
	for i := 0; i < nprocs; i++ {
		capacity := params.PadEntries
		if params.PerfectSNC {
			capacity = 0 // unbounded
		}
		l.pads = append(l.pads, newPadCache(capacity))
	}
	return l
}

// pad computes the OTP material for one line: four AES blocks of
// AES_K(addr ‖ seq ‖ i).
//
// senss-lint:hotpath
func (l *Layer) pad(addr, seq uint64, dst []byte) {
	for i := 0; i*aes.BlockSize < len(dst); i++ {
		b := l.cipher.Encrypt(aes.BlockFromUint64(addr, seq<<8|uint64(i)))
		copy(dst[i*aes.BlockSize:], b[:])
	}
}

// xorPad XORs the pad for (addr, seq) into buf in place.
//
// senss-lint:hotpath
func (l *Layer) xorPad(addr, seq uint64, buf []byte) {
	if cap(l.padScratch) < len(buf) {
		//senss-lint:ignore hotpath first-touch growth: the scratch buffer reaches line size once and is reused
		l.padScratch = make([]byte, len(buf))
	}
	padBuf := l.padScratch[:len(buf)]
	l.pad(addr, seq, padBuf)
	for i := range buf {
		buf[i] ^= padBuf[i]
	}
}

// ensure lazily encrypts a line the first time the protected system touches
// it (initial image lines are encrypted by EncryptAll; this covers
// never-initialized zero lines).
//
// senss-lint:hotpath
func (l *Layer) ensure(addr uint64) uint64 {
	if s, ok := l.seq[addr]; ok {
		return s
	}
	l.seq[addr] = 1
	//senss-lint:ignore hotpath first-touch encryption runs once per line, off the steady state
	buf := make([]byte, mem.LineSize)
	l.backing.ReadLine(addr, buf)
	l.xorPad(addr, 1, buf)
	l.backing.WriteLine(addr, buf)
	l.Stats.Encrypts++
	return 1
}

// EncryptAll converts the current (plaintext) memory image to ciphertext —
// the "program load" step. Call once, after workload setup.
func (l *Layer) EncryptAll() {
	for _, addr := range l.backing.Touched() {
		l.ensure(addr)
	}
}

// Fetch implements bus.MemoryPort: decrypt the line for the requester,
// charging AES latency only when the requester's pad entry is stale or
// missing (SNC miss).
//
// senss-lint:hotpath
func (l *Layer) Fetch(t *bus.Transaction, dst []byte) uint64 {
	seq := l.ensure(t.Addr)
	l.backing.ReadLine(t.Addr, dst)
	l.xorPad(t.Addr, seq, dst)
	l.Stats.Decrypts++

	var extra uint64
	if l.params.PerfectSNC {
		// A perfect SNC (paper §7.7) always holds the fresh sequence, so
		// pad generation fully overlaps the DRAM access.
		l.Stats.PadHits++
		//senss-lint:ignore cycleacct perfect SNC: pad generation fully overlaps the DRAM access (§7.7)
		return 0
	}
	if t.Src >= 0 && t.Src < len(l.pads) {
		pc := l.pads[t.Src]
		if seen, ok := pc.get(t.Addr); ok && seen == seq {
			l.Stats.PadHits++
			// Pad generation fully overlaps the DRAM access.
		} else {
			l.Stats.PadMisses++
			extra = l.params.AESLatency
			l.pendingReq[t.Src] = t.Addr
			l.pendingSet[t.Src] = true
			pc.put(t.Addr, seq)
		}
	}
	return extra
}

// Store implements bus.MemoryPort: bump the sequence, encrypt under the
// fresh pad, and refresh the writer's pad entry. Pad generation overlaps
// the writeback, so no extra cycles are exposed.
//
// senss-lint:hotpath
func (l *Layer) Store(t *bus.Transaction, src []byte) uint64 {
	l.ensure(t.Addr)
	l.seq[t.Addr]++
	seq := l.seq[t.Addr]
	l.Stats.SeqBumps++
	if cap(l.storeScratch) < len(src) {
		//senss-lint:ignore hotpath first-touch growth: the scratch buffer reaches line size once and is reused
		l.storeScratch = make([]byte, len(src))
	}
	buf := l.storeScratch[:len(src)]
	copy(buf, src)
	l.xorPad(t.Addr, seq, buf)
	l.backing.WriteLine(t.Addr, buf)
	l.Stats.Encrypts++
	if !l.params.PerfectSNC {
		if t.Src >= 0 && t.Src < len(l.pads) {
			l.pads[t.Src].put(t.Addr, seq)
		}
		for pid, pc := range l.pads {
			if pid == t.Src {
				continue
			}
			if l.params.WriteUpdate {
				// Write-update (§6.1 variant): the PadUpd broadcast
				// refreshes entries that exist; processors not caching
				// the pad stay cold.
				if _, ok := pc.get(t.Addr); ok {
					pc.put(t.Addr, seq)
				}
			} else {
				// Write-invalidate (the paper's default): the PadInv
				// broadcast drops stale entries.
				pc.drop(t.Addr)
			}
		}
	}
	//senss-lint:ignore cycleacct pad generation overlaps the writeback; no cycles are exposed (§6.1)
	return 0
}

// TakePendingRequest returns (and clears) the line address whose fetch by
// pid just missed the pad cache — the node hook issues the corresponding
// PadReq bus transaction.
func (l *Layer) TakePendingRequest(pid int) (uint64, bool) {
	if pid < 0 || pid >= len(l.pendingSet) || !l.pendingSet[pid] {
		return 0, false
	}
	l.pendingSet[pid] = false
	l.Stats.Requests++
	return l.pendingReq[pid], true
}

// NoteInvalidate counts a PadInv/PadUpd broadcast (issued by the writer's
// hook).
func (l *Layer) NoteInvalidate() { l.Stats.Invalidates++ }

// WriteUpdate reports which pad-coherence variant is active.
func (l *Layer) WriteUpdate() bool { return l.params.WriteUpdate }

// ReadLineDecrypted reads the current plaintext of a line, bypassing
// timing — for validation, invariant checks, and the integrity layer's
// tree construction.
func (l *Layer) ReadLineDecrypted(addr uint64, dst []byte) {
	l.backing.ReadLine(addr, dst)
	if seq, ok := l.seq[addr]; ok {
		l.xorPad(addr, seq, dst)
	}
}

// ReadWordDecrypted reads one aligned plaintext word without timing.
func (l *Layer) ReadWordDecrypted(addr uint64) uint64 {
	la := mem.LineAddr(addr)
	buf := make([]byte, mem.LineSize)
	l.ReadLineDecrypted(la, buf)
	return mem.ReadWordFromLine(buf, addr-la)
}

// Seq exposes a line's current sequence number (tests).
func (l *Layer) Seq(addr uint64) uint64 { return l.seq[addr] }
