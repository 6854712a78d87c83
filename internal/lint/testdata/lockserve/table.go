// Package lockserve is a stdlib-only mirror of internal/serve's
// lock-striped session table, kept lint-clean: TestLockguardPlantedUnlock
// loads it twice, once verbatim (expecting zero findings) and once with
// one Unlock textually removed (expecting the missing-release finding).
// This pins the property the acceptance gate cares about: the analyzer
// does not merely pass on today's tree, it demonstrably catches the
// regression that matters.
package lockserve

import "sync"

// Hosted stands in for the serving layer's per-session record.
type Hosted struct {
	ID string

	mu sync.Mutex
	//senss-lint:guardedby mu
	steps uint64
}

// Step mirrors the per-session critical section.
func (h *Hosted) Step() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.steps++
	return h.steps
}

// Table mirrors the lock-striped registry shape.
type Table struct {
	shards []tableShard
}

type tableShard struct {
	mu sync.Mutex
	//senss-lint:guardedby mu
	m map[string]*Hosted
}

// NewTable seeds the shard maps before the table escapes.
//
// senss-lint:ignore lockguard construction: the table has not escaped NewTable yet
func NewTable(n int) *Table {
	if n <= 0 {
		n = 4
	}
	t := &Table{shards: make([]tableShard, n)}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*Hosted)
	}
	return t
}

func (t *Table) shardFor(id string) *tableShard {
	sum := 0
	for i := 0; i < len(id); i++ {
		sum += int(id[i])
	}
	return &t.shards[sum%len(t.shards)]
}

// Put registers a session under its ID.
func (t *Table) Put(h *Hosted) {
	s := t.shardFor(h.ID)
	s.mu.Lock()
	s.m[h.ID] = h
	s.mu.Unlock()
}

// Get returns the session with the given ID.
func (t *Table) Get(id string) (*Hosted, bool) {
	s := t.shardFor(id)
	s.mu.Lock()
	h, ok := s.m[id]
	s.mu.Unlock()
	return h, ok
}

// Delete removes and returns the session with the given ID. The Unlock
// below is the mutation target: the planted-regression test removes the
// line carrying the "planted-unlock" marker and expects lockguard to
// report the leaked lock on the return path.
func (t *Table) Delete(id string) (*Hosted, bool) {
	s := t.shardFor(id)
	s.mu.Lock()
	h, ok := s.m[id]
	if ok {
		delete(s.m, id)
	}
	s.mu.Unlock() // planted-unlock
	return h, ok
}

// Snapshot copies every session out, one shard lock at a time.
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
