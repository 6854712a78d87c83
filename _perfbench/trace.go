package main

import "time"

// span is one timed call at a layer boundary. Spans of one simulation or
// served session share ID; Parent is the index of the enclosing span in
// the same recorder, or -1.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the run. A nil *tracer records
// nothing, so untraced phases share the traced code path at the cost of
// a nil check. A tracer is used by one goroutine; concurrent clients
// each own one and the spans are merged afterwards.
type tracer struct {
	epoch time.Time
	spans []span
	ids   int // next span ID newID hands out
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// newID returns a fresh span ID for one simulation or session.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.ids++
	return t.ids - 1
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(id int, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// absorb appends o's spans, renumbering their parent links.
func (t *tracer) absorb(o *tracer) {
	off := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// durations returns the lengths in ms of every span called name, or of
// those whose ID satisfies keep when keep is non-nil.
func (t *tracer) durations(name string, keep func(id int) bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.ID)) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerMetric is one per-layer measurement tagged with the workload it was
// measured on, as written to the span dump.
type layerMetric struct {
	Name     string  `json:"name"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
}

// traceReport is the span dump of a traced run.
type traceReport struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Metrics  []layerMetric `json:"metrics"`
	Spans    []span        `json:"spans"`
}

// report builds the dump from the per-layer metrics.
func (t *tracer) report(o options, metrics map[string]metric) *traceReport {
	rep := &traceReport{Workload: o.workload, Seed: o.seed, Spans: t.spans}
	for _, name := range perLayerNames {
		m := metrics[name]
		rep.Metrics = append(rep.Metrics, layerMetric{Name: name, Value: m.Value, Unit: m.Unit, Workload: o.workload})
	}
	return rep
}
