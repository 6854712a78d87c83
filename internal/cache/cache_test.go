package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"senss/internal/rng"
)

func TestStateStrings(t *testing.T) {
	cases := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestDirtyStates(t *testing.T) {
	if !Modified.Dirty() || !Owned.Dirty() {
		t.Error("M and O must be dirty")
	}
	if Invalid.Dirty() || Shared.Dirty() || Exclusive.Dirty() {
		t.Error("I, S, E must be clean")
	}
}

func TestLookupHitMiss(t *testing.T) {
	c := New(1024, 4, 64, true)
	if c.Lookup(0x100) != nil {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x100, Shared)
	l := c.Lookup(0x100)
	if l == nil || l.State != Shared {
		t.Fatal("miss after insert")
	}
	if c.Lookup(0x140) != nil { // adjacent line
		t.Fatal("wrong line matched")
	}
	if c.Hits != 1 || c.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", c.Hits, c.Misses)
	}
}

func TestSameLineDifferentOffsets(t *testing.T) {
	c := New(1024, 4, 64, true)
	c.Insert(0x100, Exclusive)
	if c.Lookup(0x13F) == nil {
		t.Error("offset within line missed")
	}
	if c.Lookup(0x140) != nil {
		t.Error("next line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 sets, 2 ways, 64B lines = 256B.
	c := New(256, 2, 64, true)
	// Set 0 gets lines at stride 128.
	c.Insert(0x000, Shared)
	c.Insert(0x080, Shared)
	c.Lookup(0x000) // make 0x080 the LRU
	_, v := c.Insert(0x100, Shared)
	if v == nil || v.Addr != 0x080 {
		t.Fatalf("victim = %+v, want line 0x080", v)
	}
	if c.Peek(0x000) == nil || c.Peek(0x100) == nil {
		t.Error("resident lines lost")
	}
	if c.Peek(0x080) != nil {
		t.Error("victim still present")
	}
}

func TestInsertReusesExistingFrame(t *testing.T) {
	c := New(256, 2, 64, true)
	l1, _ := c.Insert(0x40, Shared)
	l1.Data[0] = 0xAA
	l2, v := c.Insert(0x40, Modified)
	if v != nil {
		t.Error("reinsert evicted something")
	}
	if l2 != l1 {
		t.Error("reinsert used a different frame")
	}
	if l2.State != Modified {
		t.Error("state not updated")
	}
	if l2.Data[0] != 0xAA {
		t.Error("reinsert cleared data of existing frame")
	}
}

func TestVictimCarriesDataCopy(t *testing.T) {
	c := New(128, 2, 64, true) // one set, 2 ways
	l, _ := c.Insert(0x000, Modified)
	copy(l.Data, []byte{1, 2, 3})
	c.Insert(0x040, Shared)
	_, v := c.Insert(0x080, Shared) // evicts LRU = 0x000
	if v == nil || v.Addr != 0 || v.State != Modified {
		t.Fatalf("victim = %+v", v)
	}
	if v.Data[0] != 1 || v.Data[1] != 2 || v.Data[2] != 3 {
		t.Error("victim data not copied")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1024, 4, 64, true)
	l, _ := c.Insert(0x200, Modified)
	l.Data[5] = 42
	st, data := c.Invalidate(0x200)
	if st != Modified || data[5] != 42 {
		t.Errorf("Invalidate = %v %v", st, data[5])
	}
	if c.Peek(0x200) != nil {
		t.Error("line survived invalidation")
	}
	if st, _ := c.Invalidate(0x200); st != Invalid {
		t.Error("double invalidate returned valid state")
	}
}

func TestAddrOfRoundTrip(t *testing.T) {
	c := New(4096, 4, 64, true)
	r := rng.New(2)
	f := func() bool {
		addr := c.LineAddr(uint64(r.Uint32()))
		l, _ := c.Insert(addr, Shared)
		set, _ := int(addr/64%uint64(c.Sets())), 0
		_ = set
		// Locate the frame and reconstruct its address.
		found := false
		c.ForEach(func(a uint64, ll *Line) {
			if ll == l && a == addr {
				found = true
			}
		})
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTagOnlyCache(t *testing.T) {
	c := New(256, 2, 32, false)
	l, _ := c.Insert(0x20, Shared)
	if l.Data != nil {
		t.Error("tag-only cache allocated data")
	}
	_, v := c.Insert(0x20+256, Shared)
	_ = v
	if c.Peek(0x20) == nil {
		t.Error("line missing")
	}
}

func TestFlush(t *testing.T) {
	c := New(1024, 4, 64, true)
	c.Insert(0x100, Modified)
	c.Insert(0x200, Shared)
	c.Flush()
	n := 0
	c.ForEach(func(uint64, *Line) { n++ })
	if n != 0 {
		t.Errorf("%d lines after flush", n)
	}
}

func TestTinyCacheGeometry(t *testing.T) {
	// Fewer lines than requested ways: falls back to one set.
	c := New(64, 4, 64, true)
	if c.Sets() != 1 || c.Ways() != 1 {
		t.Errorf("geometry %d sets × %d ways", c.Sets(), c.Ways())
	}
}

func TestNonPowerOfTwoSetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("3-set cache accepted")
		}
	}()
	New(3*64*2, 2, 64, true)
}

// TestNewPanicsOnBadGeometry: New refuses every geometry that index and
// LineAddr cannot split by shift and mask.
func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		size, ways, lineSize int
	}{
		{"zero size", 0, 2, 64},
		{"zero ways", 1024, 0, 64},
		{"zero line", 1024, 2, 0},
		{"line 48", 48 * 8, 2, 48},
		{"line 96", 96 * 8, 2, 96},
		{"line 3", 3 * 8, 2, 3},
		{"3 sets", 3 * 64 * 2, 2, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d, %d) accepted", tc.size, tc.ways, tc.lineSize)
				}
			}()
			New(tc.size, tc.ways, tc.lineSize, false)
		})
	}
}

// TestPeekTouchMatchesLookup plays one random access stream on twin
// caches, probing one with Lookup and the other with Peek plus Touch on a
// hit, and requires the same hits, victims (so the same LRU order) and
// final contents.
func TestPeekTouchMatchesLookup(t *testing.T) {
	a, b := New(1024, 4, 32, false), New(1024, 4, 32, false)
	r := rng.New(5)
	for i := 0; i < 20000; i++ {
		addr := uint64(r.Intn(64)) * 32 * 2 // 64 lines over 8 sets: evictions
		hitA := a.Lookup(addr) != nil
		l := b.Peek(addr)
		if l != nil {
			b.Touch(l)
		}
		if hitA != (l != nil) {
			t.Fatalf("access %d at %#x: Lookup hit %v, Peek hit %v", i, addr, hitA, l != nil)
		}
		if !hitA {
			_, va := a.Insert(addr, Shared)
			_, vb := b.Insert(addr, Shared)
			if (va == nil) != (vb == nil) || va != nil && va.Addr != vb.Addr {
				t.Fatalf("access %d at %#x: victims %+v and %+v", i, addr, va, vb)
			}
		}
	}
	if a.Hits != b.Hits || a.Evictions != b.Evictions {
		t.Errorf("Lookup counted %d hits and %d evictions, Peek+Touch %d and %d",
			a.Hits, a.Evictions, b.Hits, b.Evictions)
	}
	var la, lb []uint64
	a.ForEach(func(addr uint64, _ *Line) { la = append(la, addr) })
	b.ForEach(func(addr uint64, _ *Line) { lb = append(lb, addr) })
	if !slices.Equal(la, lb) {
		t.Errorf("final contents differ:\n%x\n%x", la, lb)
	}
}
