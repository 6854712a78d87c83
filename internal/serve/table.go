package serve

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// DefaultShards is the session-table shard count: enough to keep
// create/step/evict contention off any single lock with hundreds of
// concurrent handlers, small enough to stay cheap.
const DefaultShards = 16

// Table is the lock-striped session registry — the gocryptfs
// openfiletable/inomap pattern applied to simulation sessions. IDs hash
// onto DefaultShards independently locked shards, so concurrent handlers touching
// different sessions never serialize on a global lock; per-session
// mutual exclusion lives in the Hosted itself.
type Table struct {
	shards [DefaultShards]tableShard
	nextID atomic.Uint64
	count  atomic.Int64
}

type tableShard struct {
	mu sync.Mutex
	//senss-lint:guardedby mu
	m map[string]*Hosted
}

// NewTable builds an empty table of DefaultShards shards.
//
//senss-lint:ignore lockguard construction: the table has not escaped NewTable yet, so no other goroutine can observe the shard maps being seeded
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*Hosted)
	}
	return t
}

// NewID mints a stable, unique session ID. IDs are dense and ordered
// ("s-000001", ...): stable handles for clients, and cheap to shard.
func (t *Table) NewID() string {
	return fmt.Sprintf("s-%06x", t.nextID.Add(1))
}

func (t *Table) shardFor(id string) *tableShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id)) // fnv's Write cannot fail
	return &t.shards[h.Sum32()%DefaultShards]
}

// Put registers a session under its ID.
func (t *Table) Put(h *Hosted) {
	s := t.shardFor(h.ID)
	s.mu.Lock()
	s.m[h.ID] = h
	s.mu.Unlock()
	t.count.Add(1)
}

// Get returns the session with the given ID.
func (t *Table) Get(id string) (*Hosted, bool) {
	s := t.shardFor(id)
	s.mu.Lock()
	h, ok := s.m[id]
	s.mu.Unlock()
	return h, ok
}

// Delete removes and returns the session with the given ID. The caller
// owns the follow-up teardown (Hosted.close) outside the shard lock.
func (t *Table) Delete(id string) (*Hosted, bool) {
	s := t.shardFor(id)
	s.mu.Lock()
	h, ok := s.m[id]
	if ok {
		delete(s.m, id)
	}
	s.mu.Unlock()
	if ok {
		t.count.Add(-1)
	}
	return h, ok
}

// Len returns the number of registered sessions.
func (t *Table) Len() int { return int(t.count.Load()) }

// Snapshot returns every registered session. Each shard is copied under
// its own lock; the aggregate is not a consistent cut across shards,
// which eviction sweeps and stats endpoints do not need.
func (t *Table) Snapshot() []*Hosted {
	var out []*Hosted
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, h := range s.m {
			out = append(out, h)
		}
		s.mu.Unlock()
	}
	return out
}
