package farm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"senss/internal/stats"
)

// CacheVersion stamps every on-disk entry. It must
// change whenever a cached result could disagree with what the current
// build would compute: whenever a record of testdata/golden_cycles.json
// changes (the suffix is its falseshare/base cycle count) or stats.Run
// changes shape. Entries carrying any other version are treated as
// misses and swept by GC.
const CacheVersion = "farm-v2/golden-50895"

// entry is the on-disk representation of one cached result.
type entry struct {
	Version  string    `json:"version"`
	Hash     string    `json:"hash"`
	Workload string    `json:"workload"`
	Run      stats.Run `json:"run"`
}

// CacheStats counts outcomes over the life of a Cache.
type CacheStats struct {
	Hits     uint64 `json:"hits"`      // served without simulating (either layer)
	DiskHits uint64 `json:"disk_hits"` // subset of Hits that came off disk
	Misses   uint64 `json:"misses"`
	Corrupt  uint64 `json:"corrupt"` // unreadable or version-stale entries (counted as misses)
}

// Cache is the two-layer result store: an in-memory map in front of an
// optional content-addressed directory of JSON files, one file per job
// hash. An empty directory name keeps results in memory only.
type Cache struct {
	dir string

	mu sync.Mutex
	//senss-lint:guardedby mu
	mem map[string]stats.Run
	//senss-lint:guardedby mu
	cnts CacheStats
}

// NewCache opens (creating if needed) the cache directory; dir == ""
// selects a memory-only cache and cannot fail.
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("farm: creating cache dir: %w", err)
		}
	}
	return &Cache{dir: dir, mem: make(map[string]stats.Run)}, nil
}

// path is the entry file for a job hash.
func (c *Cache) path(hash string) string { return filepath.Join(c.dir, hash+".json") }

// Get returns the cached run for hash. A disk entry that is truncated,
// garbled, mis-addressed, or stamped with a different CacheVersion is a
// miss — the job recomputes and the entry is rewritten — never an error.
func (c *Cache) Get(hash string) (stats.Run, bool) {
	c.mu.Lock()
	if run, ok := c.mem[hash]; ok {
		c.cnts.Hits++
		c.mu.Unlock()
		return run, true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if e, ok := c.readEntry(c.path(hash), hash); ok {
			c.mu.Lock()
			c.mem[hash] = e.Run
			c.cnts.Hits++
			c.cnts.DiskHits++
			c.mu.Unlock()
			return e.Run, true
		}
	}
	c.mu.Lock()
	c.cnts.Misses++
	c.mu.Unlock()
	return stats.Run{}, false
}

// readEntry loads and validates one entry file; corruption of any kind
// is tolerated by reporting !ok (and counting it when the file existed).
func (c *Cache) readEntry(path, wantHash string) (entry, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return entry{}, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != CacheVersion || (wantHash != "" && e.Hash != wantHash) {
		c.mu.Lock()
		c.cnts.Corrupt++
		c.mu.Unlock()
		return entry{}, false
	}
	return e, true
}

// Put stores a result in both layers. The disk write goes through a
// temp file and an atomic rename, so concurrent readers and a crash
// mid-write can never observe a partial entry.
func (c *Cache) Put(j Job, hash string, run stats.Run) error {
	c.mu.Lock()
	c.mem[hash] = run
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	e := entry{Version: CacheVersion, Hash: hash, Workload: j.Workload, Run: run}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("farm: encoding cache entry: %w", err)
	}
	return atomicWrite(c.path(hash), append(data, '\n'))
}

// Has reports whether hash is resident in either layer (without
// promoting disk entries or touching the counters).
func (c *Cache) Has(hash string) bool {
	c.mu.Lock()
	_, ok := c.mem[hash]
	c.mu.Unlock()
	if ok {
		return true
	}
	if c.dir == "" {
		return false
	}
	_, ok = c.readEntry(c.path(hash), hash)
	return ok
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cnts
}

// DiskEntries returns the hashes of the valid on-disk entries, in sorted
// (directory) order, plus how many files were skipped as invalid.
func (c *Cache) DiskEntries() (hashes []string, invalid int, err error) {
	if c.dir == "" {
		return nil, 0, nil
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, 0, err
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		hash := strings.TrimSuffix(name, ".json")
		if _, ok := c.readEntry(filepath.Join(c.dir, name), hash); ok {
			hashes = append(hashes, hash)
		} else {
			invalid++
		}
	}
	return hashes, invalid, nil
}

// GC sweeps the cache directory: temp-file leftovers and invalid or
// version-stale entries are always removed; all == true additionally
// removes every valid entry. Any other *.json file is an invalid entry.
// It returns how many files were removed.
func (c *Cache) GC(all bool) (removed int, err error) {
	if c.dir == "" {
		c.mu.Lock()
		if all {
			removed = len(c.mem)
			c.mem = make(map[string]stats.Run)
		}
		c.mu.Unlock()
		return removed, nil
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, err
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		path := filepath.Join(c.dir, name)
		drop := false
		switch {
		case strings.Contains(name, ".tmp"):
			drop = true // interrupted atomic write
		case strings.HasSuffix(name, ".json"):
			hash := strings.TrimSuffix(name, ".json")
			_, valid := c.readEntry(path, hash)
			drop = all || !valid
		}
		if !drop {
			continue
		}
		if err := os.Remove(path); err != nil {
			return removed, err
		}
		removed++
	}
	if all {
		c.mu.Lock()
		c.mem = make(map[string]stats.Run)
		c.mu.Unlock()
	}
	return removed, nil
}

// atomicWrite writes data to path via a sibling temp file and rename.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("farm: cache write: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("farm: cache write: %w", werr)
		}
		return fmt.Errorf("farm: cache write: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("farm: cache write: %w", err)
	}
	return nil
}
