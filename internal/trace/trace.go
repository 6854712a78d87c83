// Package trace records the bus transaction stream of a simulation for
// offline analysis — per-kind histograms, group shares, inter-arrival
// statistics — and serializes it as JSON lines.
//
// A Recorder implements bus.SecurityHook with zero cycle cost, so it can
// ride on any configuration (including the unprotected baseline) without
// disturbing timing.
//
// Note: SENSS authentication broadcasts are piggybacked on the bus tenure
// of the transfer that saturated the counter (bus.RecordInjected), so they
// appear in the bus statistics but not as separate trace events.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"senss/internal/bus"
	"senss/internal/sim"
)

// Event is one observed bus transaction.
type Event struct {
	Cycle    uint64 `json:"cycle"`
	Kind     string `json:"kind"`
	Addr     uint64 `json:"addr"`
	Src      int    `json:"src"`
	GID      int    `json:"gid"`
	Supplier int    `json:"supplier"` // -1 = memory
	C2C      bool   `json:"c2c"`
	Extra    uint64 `json:"extra"` // security cycles charged
}

// Recorder captures bus events up to Limit (0 = unlimited).
type Recorder struct {
	Limit   int
	Events  []Event
	Dropped uint64 // events beyond Limit
}

// NewRecorder returns a recorder keeping at most limit events.
func NewRecorder(limit int) *Recorder { return &Recorder{Limit: limit} }

// OnTransaction implements bus.SecurityHook (cost-free observation).
//
// senss-lint:ignore cycleacct the recorder observes without disturbing timing: zero cycles is its contract
func (r *Recorder) OnTransaction(p *sim.Proc, t *bus.Transaction) uint64 {
	if r.Limit > 0 && len(r.Events) >= r.Limit {
		r.Dropped++
		return 0
	}
	cycle := uint64(0)
	if p != nil {
		cycle = p.Now()
	}
	r.Events = append(r.Events, Event{
		Cycle:    cycle,
		Kind:     t.Kind.String(),
		Addr:     t.Addr,
		Src:      t.Src,
		GID:      t.GID,
		Supplier: t.SupplierID,
		C2C:      t.CacheToCache(),
		Extra:    t.Extra,
	})
	return 0
}

// WriteJSONL serializes the trace as one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.Events {
		if err := enc.Encode(&r.Events[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a trace written by WriteJSONL.
func ReadJSONL(rd io.Reader) ([]Event, error) {
	dec := json.NewDecoder(rd)
	var out []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Summary is the aggregate view of a trace.
type Summary struct {
	Total      int
	ByKind     map[string]int
	BySrc      map[int]int
	ByGID      map[int]int
	C2C        int
	MeanGap    float64 // mean cycles between consecutive transactions
	FirstCycle uint64
	LastCycle  uint64
}

// Summarize aggregates events.
func Summarize(events []Event) Summary {
	s := Summary{
		ByKind: make(map[string]int),
		BySrc:  make(map[int]int),
		ByGID:  make(map[int]int),
	}
	s.Total = len(events)
	if s.Total == 0 {
		return s
	}
	s.FirstCycle = events[0].Cycle
	s.LastCycle = events[len(events)-1].Cycle
	for _, e := range events {
		s.ByKind[e.Kind]++
		s.BySrc[e.Src]++
		s.ByGID[e.GID]++
		if e.C2C {
			s.C2C++
		}
	}
	if s.Total > 1 {
		s.MeanGap = float64(s.LastCycle-s.FirstCycle) / float64(s.Total-1)
	}
	return s
}

// HotLine is one entry of the per-address contention ranking.
type HotLine struct {
	Addr       uint64
	Accesses   int
	C2C        int
	Requesters int // distinct requesting processors
}

// HotLines ranks line addresses by access count (top n) — the false-/true-
// sharing hot spots of a workload.
func HotLines(events []Event, n int) []HotLine {
	type acc struct {
		count, c2c int
		reqs       map[int]bool
	}
	byAddr := make(map[uint64]*acc)
	for _, e := range events {
		if e.Kind == "BusAuth" || e.Kind == "BusPadInv" || e.Kind == "BusPadReq" || e.Kind == "BusPadUpd" {
			continue
		}
		a, ok := byAddr[e.Addr]
		if !ok {
			a = &acc{reqs: make(map[int]bool)}
			byAddr[e.Addr] = a
		}
		a.count++
		if e.C2C {
			a.c2c++
		}
		a.reqs[e.Src] = true
	}
	out := make([]HotLine, 0, len(byAddr))
	for addr, a := range byAddr {
		out = append(out, HotLine{Addr: addr, Accesses: a.count, C2C: a.c2c, Requesters: len(a.reqs)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Accesses != out[j].Accesses {
			return out[i].Accesses > out[j].Accesses
		}
		return out[i].Addr < out[j].Addr
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// GapHistogram buckets inter-transaction gaps into powers of two (cycles):
// bucket i counts gaps in [2^i, 2^(i+1)). Useful for judging bus burstiness
// (what the adaptive authentication controller keys on).
func GapHistogram(events []Event) map[int]int {
	h := make(map[int]int)
	for i := 1; i < len(events); i++ {
		gap := events[i].Cycle - events[i-1].Cycle
		bucket := 0
		for g := gap; g > 1; g >>= 1 {
			bucket++
		}
		h[bucket]++
	}
	return h
}

// Format renders the summary as text.
func (s Summary) Format(w io.Writer) {
	fmt.Fprintf(w, "transactions: %d (%d cache-to-cache) over cycles %d..%d, mean gap %.1f\n",
		s.Total, s.C2C, s.FirstCycle, s.LastCycle, s.MeanGap)
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-10s %6d\n", k, s.ByKind[k])
	}
	srcs := make([]int, 0, len(s.BySrc))
	for src := range s.BySrc {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	for _, src := range srcs {
		fmt.Fprintf(w, "  cpu%-2d      %6d\n", src, s.BySrc[src])
	}
}
