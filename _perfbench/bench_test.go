package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"senss/internal/serve"
	"senss/internal/stats"
)

// repoRoot is the repository root seen from this package's directory.
const repoRoot = ".."

func loadTestGolden(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	golden, err := loadGolden(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestGoldenCellsExist checks that the golden table holds a cell for
// every (kernel, variant) the sim workloads run.
func TestGoldenCellsExist(t *testing.T) {
	golden := loadTestGolden(t)
	for wl, want := range map[string]int{wlSplash: 10, wlMemprotect: 5} {
		cells, err := simCells(wl, golden)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(cells) != want {
			t.Errorf("%s: %d cells, want %d", wl, len(cells), want)
		}
		for _, c := range cells {
			if len(c.want) == 0 {
				t.Errorf("%s: cell %s has no golden record", wl, c.key())
			}
		}
	}
	delete(golden, "fft/base")
	if _, err := simCells(wlSplash, golden); err == nil {
		t.Error("simCells accepted a golden table without fft/base")
	}
}

// TestPerturbedGoldenIsFailedOp changes one golden value and checks the
// run reports it as a failed operation instead of crashing.
func TestPerturbedGoldenIsFailedOp(t *testing.T) {
	cells, err := simCells(wlSplash, loadTestGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	var run stats.Run
	if err := json.Unmarshal(c.want, &run); err != nil {
		t.Fatal(err)
	}
	run.Cycles++
	if c.want, err = json.Marshal(run); err != nil {
		t.Fatal(err)
	}
	ph := simPhase([]cell{cells[1], c}, rand.New(rand.NewPCG(1, 0)), 0, false, nil)
	if ph.attempted != 2 || ph.failed != 1 || ph.sessions != 1 {
		t.Fatalf("attempted=%d failed=%d sessions=%d, want 2, 1, 1", ph.attempted, ph.failed, ph.sessions)
	}
	if res := ph.finish(nil); res.Correct {
		t.Error("a run with a golden mismatch reported correct")
	}
}

// TestServedMismatchIsFailedOp checks a served session is compared with
// its serial result, that a mismatch fails exactly the stats request, and
// that the session is still deleted.
func TestServedMismatchIsFailedOp(t *testing.T) {
	sc := serveCell{spec: serve.SessionSpec{Workload: "falseshare", Procs: 2, Security: "senss", Crypto: "stdlib"}}
	if err := sc.expect(); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{})
	defer srv.Close()
	c := &client{h: srv}
	if _, err := c.session(0, sc, "tenant-0"); err != nil {
		t.Fatalf("matching session failed: %v", err)
	}
	if c.tally.failed != 0 {
		t.Fatalf("matching session counted %d failures", c.tally.failed)
	}

	var run stats.Run
	if err := json.Unmarshal(sc.want, &run); err != nil {
		t.Fatal(err)
	}
	run.BusTotal++
	sc.want, _ = json.Marshal(run)
	before := c.tally.attempted
	if _, err := c.session(1, sc, "tenant-1"); err == nil {
		t.Fatal("mismatching session reported success")
	}
	if c.tally.failed != 1 {
		t.Errorf("mismatch counted %d failures, want 1", c.tally.failed)
	}
	if c.tally.attempted <= before+2 {
		t.Errorf("mismatching session issued %d requests; want create, steps, stats, delete", c.tally.attempted-before)
	}
	if n := srv.Stats().Sessions; n != 0 {
		t.Errorf("%d sessions left on the server after a failed session", n)
	}
}

// TestServePhaseConcurrentClients drives a traced served phase from two
// clients at once (run it with -race): every session must match its
// serial result and the sampled peaks must see the load.
func TestServePhaseConcurrentClients(t *testing.T) {
	cells := serveMixCells()[:4]
	for i := range cells {
		if err := cells[i].expect(); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTracer(time.Now())
	ph, sv := servePhase(cells, 2, mixJobs(3, 2, len(cells)), 200*time.Millisecond, tr)
	if ph.failed != 0 {
		t.Fatalf("%d of %d requests failed; first: %v", ph.failed, ph.attempted, ph.firstErr)
	}
	if ph.sessions == 0 || len(sv.sessions) != ph.sessions {
		t.Fatalf("completed %d sessions, kept %d", ph.sessions, len(sv.sessions))
	}
	if sv.peakInflight < 1 {
		t.Errorf("peak in-flight %d, want at least 1", sv.peakInflight)
	}
	if len(tr.durations("serve.step", nil)) != len(ph.lat.step) {
		t.Errorf("%d step spans for %d steps", len(tr.durations("serve.step", nil)), len(ph.lat.step))
	}
}

// TestScheduleSeeded checks the same seed yields the same serve-mix
// schedule, another seed another one, and every window of len(cells)
// sessions covers each cell once.
func TestScheduleSeeded(t *testing.T) {
	const n, cells = 240, 12
	take := func(seed uint64, client int) []job {
		s := newSchedule(seed, client, cells)
		out := make([]job, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := take(7, 0), take(7, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("session %d differs for the same seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := true
	for i, j := range take(8, 0) {
		same = same && j == a[i]
	}
	if same {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	for w := 0; w < n; w += cells {
		seen := map[int]bool{}
		for _, j := range a[w : w+cells] {
			seen[j.cell] = true
		}
		if len(seen) != cells {
			t.Errorf("window at %d covers %d of %d cells", w, len(seen), cells)
		}
	}
}

// TestPercentileNeedsTenBeyond checks no percentile is reported with
// fewer than ten samples above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, p := range []float64{50, 90, 99} {
		for n := 1; n <= 1200; n++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i) // distinct, unsorted
			}
			v, ok := percentile(xs, p)
			if ok != (n >= needSamples(p)) {
				t.Fatalf("p%v n=%d: reported=%v, needSamples=%d", p, n, ok, needSamples(p))
			}
			if !ok {
				continue
			}
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Fatalf("p%v n=%d: only %d samples beyond the reported value", p, n, beyond)
			}
		}
	}
	if got := needSamples(50); got != 20 {
		t.Errorf("needSamples(50) = %d, want 20", got)
	}
	if got := needSamples(99); got != 1000 {
		t.Errorf("needSamples(99) = %d, want 1000", got)
	}
}

// TestMetricsMatchBenchmarkJSON checks both result shapes name exactly the
// metrics BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var lat latencies
	for i := 0; i < needSamples(50); i++ {
		lat.create = append(lat.create, 1)
		lat.step = append(lat.step, 1)
	}
	e2e, err := endToEnd(1, 1, 1, 1, lat)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = m.Unit
	}
	compare(t, "end_to_end", declared, e2e)

	declared = map[string]string{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	layers := map[string]metric{}
	for _, l := range perLayer {
		layers[l.name] = metric{1, l.unit}
	}
	compare(t, "per_layer", declared, layers)
	if err := checkLayerMetrics(layers); err != nil {
		t.Error(err)
	}
}

func compare(t *testing.T, what string, declared map[string]string, got map[string]metric) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit, ok := declared[n]
		if !ok {
			t.Errorf("%s: %s is reported but not declared", what, n)
		} else if unit != got[n].Unit {
			t.Errorf("%s: %s reported in %s, declared in %s", what, n, got[n].Unit, unit)
		}
	}
	if len(declared) != len(got) {
		t.Errorf("%s: %d declared, %d reported", what, len(declared), len(got))
	}
}
