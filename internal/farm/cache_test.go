package farm

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"senss/internal/stats"
)

func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(1)
	h := j.Hash()
	want := stats.Run{Workload: "falseshare", Cycles: 12345, BusByKind: map[string]uint64{"read": 7}}
	if err := c1.Put(j, h, want); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory serves the entry from disk.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(h)
	if !ok {
		t.Fatal("disk entry not found")
	}
	if got.Cycles != want.Cycles || got.BusByKind["read"] != 7 {
		t.Fatalf("round trip mangled the run: %+v", got)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want one disk hit", st)
	}

	// Second lookup is a memory hit.
	if _, ok := c2.Get(h); !ok {
		t.Fatal("promoted entry lost")
	}
	if st := c2.Stats(); st.Hits != 2 || st.DiskHits != 1 {
		t.Errorf("stats after promotion = %+v", st)
	}
}

// TestCachePoisoningFallsBackToRecompute seeds every corruption class
// the cache must tolerate: a truncated entry, garbage bytes, a stale
// version stamp, and an entry filed under the wrong hash. Each must read
// as a miss (recompute), never an error or a crash.
func TestCachePoisoningFallsBackToRecompute(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(1)
	h := j.Hash()
	if err := c.Put(j, h, stats.Run{Cycles: 99}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, h+".json"))
	if err != nil {
		t.Fatal(err)
	}

	poison := map[string][]byte{
		"truncated":     valid[:len(valid)/2],
		"garbage":       []byte("\x00\xff not json at all"),
		"empty":         {},
		"stale-version": []byte(strings.Replace(string(valid), CacheVersion, "farm-v0/ancient", 1)),
	}
	for name, data := range poison {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(filepath.Join(dir, h+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := fresh.Get(h); ok {
				t.Fatal("poisoned entry served as a hit")
			}
			if st := fresh.Stats(); st.Misses != 1 {
				t.Errorf("stats = %+v, want one miss", st)
			}
			// The recompute path rewrites the entry and recovers.
			if err := fresh.Put(j, h, stats.Run{Cycles: 99}); err != nil {
				t.Fatal(err)
			}
			again, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if run, ok := again.Get(h); !ok || run.Cycles != 99 {
				t.Fatalf("rewritten entry not served: ok=%v run=%+v", ok, run)
			}
		})
	}

	// Mis-addressed entry: valid JSON, wrong content address.
	other := filepath.Join(dir, strings.Repeat("ab", 16)+".json")
	if err := os.WriteFile(other, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(strings.Repeat("ab", 16)); ok {
		t.Fatal("mis-addressed entry served as a hit")
	}
}

// TestFarmRecomputesThroughPoisonedCache is the end-to-end satellite
// proof: a sweep whose disk cache has been truncated mid-entry recomputes
// the damaged job and completes, with no error surfaced.
func TestFarmRecomputesThroughPoisonedCache(t *testing.T) {
	dir := t.TempDir()
	f, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls sync.Map
	f.SetRunner(countingRunner(&calls))
	jobs := []Job{testJob(1), testJob(2)}
	if _, err := f.Run(jobs); err != nil {
		t.Fatal(err)
	}

	// Truncate one entry on disk.
	h := jobs[0].Hash()
	path := filepath.Join(dir, h+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:10], 0o644); err != nil {
		t.Fatal(err)
	}

	f2, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls2 sync.Map
	f2.SetRunner(countingRunner(&calls2))
	results, err := f2.Run(jobs)
	if err != nil {
		t.Fatalf("poisoned cache must recompute, not fail: %v", err)
	}
	if n := callCount(&calls2, h); n != 1 {
		t.Errorf("damaged job recomputed %d times, want 1", n)
	}
	if n := callCount(&calls2, jobs[1].Hash()); n != 0 {
		t.Errorf("intact job recomputed %d times, want 0", n)
	}
	if results[h].Run.Cycles != 1000 {
		t.Errorf("recomputed result = %+v", results[h].Run)
	}
	if st := f2.Cache().Stats(); st.Corrupt == 0 {
		t.Errorf("corruption not counted: %+v", st)
	}
}

func TestGCSweepsStaleAndTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(1)
	if err := c.Put(j, j.Hash(), stats.Run{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	// Seed debris: an interrupted temp file, garbage, and a sweep manifest
	// an older version left, which is just another invalid entry.
	for name, data := range map[string]string{
		"deadbeef.json.tmp123":                  "partial",
		"0123456789abcdef0123456789abcdef.json": "garbage",
		"manifest-old.json":                     `{"sweep":"old"}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := c.GC(false)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Errorf("gc removed %d files, want 3 (temp + garbage + manifest)", removed)
	}
	if _, ok := c.Get(j.Hash()); !ok {
		t.Fatal("gc destroyed a valid entry")
	}

	removed, err = c.GC(true)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("gc -all removed %d files, want 1 (the entry)", removed)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(j.Hash()); ok {
		t.Fatal("entry survived gc -all")
	}
}

func TestMemoryOnlyCacheWritesNothing(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(1)
	if err := c.Put(j, j.Hash(), stats.Run{Cycles: 5}); err != nil {
		t.Fatal(err)
	}
	if run, ok := c.Get(j.Hash()); !ok || run.Cycles != 5 {
		t.Fatalf("memory cache miss: ok=%v run=%+v", ok, run)
	}
	if hashes, invalid, err := c.DiskEntries(); err != nil || hashes != nil || invalid != 0 {
		t.Fatalf("memory-only cache reports disk entries: %v %d %v", hashes, invalid, err)
	}
}
