// Package cache provides the set-associative cache arrays used for the L1
// instruction/data caches, the unified L2, and the memsec pad cache.
//
// The package is purely structural: state machines (MESI, pad validity)
// live in the layers that own a cache; here we keep tags, LRU order, data
// payloads, and hit/miss accounting.
package cache

import (
	"fmt"
	"math/bits"
)

// State is a coherence state. L1 and pad caches only use Invalid and
// Shared (present); the L2 uses the full MOESI set — the write-invalidate
// protocol of the Sun Gigaplane-class machines the paper models, where a
// dirty line can be supplied cache-to-cache (the Owned state) without an
// inline memory update.
type State uint8

// MOESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

// String renders the state as its MOESI letter.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Dirty reports whether the state obliges a writeback on eviction.
//
// senss-lint:hotpath
func (s State) Dirty() bool { return s == Modified || s == Owned }

// Valid reports whether the state holds a usable copy.
//
// senss-lint:hotpath
func (s State) Valid() bool { return s != Invalid }

// Line is one cache line frame.
type Line struct {
	Tag   uint64 // line address / (lineSize*sets); valid only when State != Invalid
	State State
	Data  []byte // nil for tag-only caches (L1, pad cache)
	lru   uint64
}

// Cache is a set-associative array.
type Cache struct {
	sets     int
	ways     int
	lineSize int
	withData bool
	// Both the line size and the set count are powers of two, so an
	// address splits into set and tag by shift and mask.
	lineShift uint
	setShift  uint
	setMask   uint64
	frames    [][]Line
	tick      uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache of size bytes with the given associativity and line
// size. withData controls whether lines carry payload buffers. The line
// size and the resulting set count must be powers of two.
func New(size, ways, lineSize int, withData bool) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", lineSize))
	}
	lines := size / lineSize
	sets := lines / ways
	if sets == 0 {
		sets = 1
		ways = lines
		if ways == 0 {
			ways = 1
		}
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (size=%d ways=%d line=%d)",
			sets, size, ways, lineSize))
	}
	c := &Cache{
		sets: sets, ways: ways, lineSize: lineSize, withData: withData,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
	}
	c.frames = make([][]Line, sets)
	backing := make([]Line, sets*ways)
	for i := range c.frames {
		c.frames[i] = backing[i*ways : (i+1)*ways]
	}
	return c
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineAddr returns the line-aligned address containing addr.
//
// senss-lint:hotpath
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.lineSize) - 1)
}

// senss-lint:hotpath
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	la := addr >> c.lineShift
	return int(la & c.setMask), la >> c.setShift
}

// AddrOf reconstructs the line address of a frame in a given set.
//
// senss-lint:hotpath
func (c *Cache) AddrOf(set int, l *Line) uint64 {
	return (l.Tag<<c.setShift | uint64(set)) << c.lineShift
}

// Lookup returns the valid line containing addr and bumps its LRU age, or
// nil on miss. Hit/miss counters are updated.
//
// senss-lint:hotpath
func (c *Cache) Lookup(addr uint64) *Line {
	set, tag := c.index(addr)
	for i := range c.frames[set] {
		l := &c.frames[set][i]
		if l.State.Valid() && l.Tag == tag {
			c.Touch(l)
			return l
		}
	}
	c.Misses++
	return nil
}

// Touch counts a hit on l, a valid line of this cache that Peek returned,
// and makes it the most recently used: Peek then Touch is Lookup's hit,
// for callers that decide between peeking and taking the hit.
//
// senss-lint:hotpath
func (c *Cache) Touch(l *Line) {
	c.tick++
	l.lru = c.tick
	c.Hits++
}

// Peek returns the valid line containing addr without touching LRU or
// counters, or nil.
//
// senss-lint:hotpath
func (c *Cache) Peek(addr uint64) *Line {
	set, tag := c.index(addr)
	for i := range c.frames[set] {
		l := &c.frames[set][i]
		if l.State.Valid() && l.Tag == tag {
			return l
		}
	}
	return nil
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Addr  uint64
	State State
	Data  []byte // copy of the victim payload (nil for tag-only caches)
}

// Insert allocates a frame for addr in the given state and returns the
// displaced victim, if any. The returned line's Data is zeroed (caller
// fills it). Inserting an address that is already present reuses its frame.
//
// Insert allocates a fresh Victim per eviction; steady-state callers use
// InsertVictim with a reusable record instead.
func (c *Cache) Insert(addr uint64, state State) (*Line, *Victim) {
	var v Victim
	l, evicted := c.InsertVictim(addr, state, &v)
	if !evicted {
		return l, nil
	}
	return l, &v
}

// InsertVictim is Insert writing any displaced line into the caller-owned
// victim record, whose Data buffer is reused across evictions — the
// allocation-free form for the coherence hot path. It reports whether a
// line was displaced; when it returns false, victim is untouched.
//
// senss-lint:hotpath
func (c *Cache) InsertVictim(addr uint64, state State, victim *Victim) (*Line, bool) {
	set, tag := c.index(addr)
	frames := c.frames[set]

	// Reuse an existing frame for this tag.
	for i := range frames {
		l := &frames[i]
		if l.State.Valid() && l.Tag == tag {
			l.State = state
			c.tick++
			l.lru = c.tick
			return l, false
		}
	}
	// Prefer an invalid frame.
	var slot *Line
	for i := range frames {
		if !frames[i].State.Valid() {
			slot = &frames[i]
			break
		}
	}
	evicted := false
	if slot == nil {
		// Evict the LRU frame.
		slot = &frames[0]
		for i := range frames {
			if frames[i].lru < slot.lru {
				slot = &frames[i]
			}
		}
		victim.Addr = c.AddrOf(set, slot)
		victim.State = slot.State
		if c.withData {
			if len(victim.Data) != c.lineSize {
				//senss-lint:ignore hotpath first-touch growth: the victim record's payload buffer reaches line size once and is reused
				victim.Data = make([]byte, c.lineSize)
			}
			copy(victim.Data, slot.Data)
		} else {
			victim.Data = nil
		}
		c.Evictions++
		evicted = true
	}
	slot.Tag = tag
	slot.State = state
	if c.withData {
		if slot.Data == nil {
			//senss-lint:ignore hotpath first-touch growth: each frame's payload is allocated once and reused
			slot.Data = make([]byte, c.lineSize)
		} else {
			for i := range slot.Data {
				slot.Data[i] = 0
			}
		}
	}
	c.tick++
	slot.lru = c.tick
	return slot, evicted
}

// Drop invalidates addr's line if present and returns its prior state,
// without copying the payload — the snoop-side form for protocols where
// the writer is guaranteed to hold current data, so the victim's bytes
// are dead. Use Invalidate when the caller needs the data for dirty
// handling.
//
// senss-lint:hotpath
func (c *Cache) Drop(addr uint64) State {
	set, tag := c.index(addr)
	for i := range c.frames[set] {
		l := &c.frames[set][i]
		if l.State.Valid() && l.Tag == tag {
			st := l.State
			l.State = Invalid
			return st
		}
	}
	return Invalid
}

// Invalidate drops addr's line if present, returning its prior state and
// a copy of its data (for dirty handling by the caller).
func (c *Cache) Invalidate(addr uint64) (State, []byte) {
	set, tag := c.index(addr)
	for i := range c.frames[set] {
		l := &c.frames[set][i]
		if l.State.Valid() && l.Tag == tag {
			st := l.State
			var data []byte
			if c.withData {
				data = append([]byte(nil), l.Data...)
			}
			l.State = Invalid
			return st, data
		}
	}
	return Invalid, nil
}

// ForEach visits every valid line with its address.
func (c *Cache) ForEach(fn func(addr uint64, l *Line)) {
	for set := range c.frames {
		for i := range c.frames[set] {
			l := &c.frames[set][i]
			if l.State.Valid() {
				fn(c.AddrOf(set, l), l)
			}
		}
	}
}

// Flush invalidates every line. Dirty data is discarded; callers needing
// writebacks should ForEach first.
func (c *Cache) Flush() {
	for set := range c.frames {
		for i := range c.frames[set] {
			c.frames[set][i].State = Invalid
		}
	}
}
