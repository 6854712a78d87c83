package senss

import (
	"strings"
	"testing"

	"senss/internal/farm"
)

// renderAll flattens tables to one comparable string.
func renderAll(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// figureTables runs one figure on h and renders its tables.
func figureTables(t *testing.T, h *Harness, name string) string {
	t.Helper()
	fig, err := h.Figure(name)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := fig.Tables()
	if err != nil {
		t.Fatal(err)
	}
	return renderAll(tables)
}

// runFigure6On regenerates the Figure 6 grid on a farm with the given
// worker count and cache directory, returning the rendered tables.
func runFigure6On(t *testing.T, workers int, dir string) string {
	t.Helper()
	f, err := farm.New(farm.Options{Workers: workers, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return figureTables(t, NewHarnessOn(SizeTest, f), "6")
}

// TestFigure6DeterministicUnderConcurrency is the subsystem's
// determinism proof: the full Figure 6 grid must produce byte-identical
// tables whether it runs on one worker, on eight, or entirely from a
// warm cache.
func TestFigure6DeterministicUnderConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	serialDir, parallelDir := t.TempDir(), t.TempDir()

	serialTables := runFigure6On(t, 1, serialDir)
	parallelTables := runFigure6On(t, 8, parallelDir)
	if serialTables != parallelTables {
		t.Errorf("tables differ between workers=1 and workers=8:\n%s\nvs\n%s",
			serialTables, parallelTables)
	}

	// Warm replay: same directory, everything served from cache.
	if warmTables := runFigure6On(t, 8, parallelDir); warmTables != parallelTables {
		t.Errorf("warm-cache tables differ from cold run")
	}
}

// TestFigure6WarmCacheSkipsSimulation pins the caching contract at the
// harness level: after one cold Figure 6 run, regenerating it performs
// zero simulations.
func TestFigure6WarmCacheSkipsSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	dir := t.TempDir()
	f, err := farm.New(farm.Options{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarnessOn(SizeTest, f)
	h.Workloads = []string{"falseshare", "lockcontend"}
	figureTables(t, h, "6")
	cold := f.Cache().Stats()

	f2, err := farm.New(farm.Options{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h2 := NewHarnessOn(SizeTest, f2)
	h2.Workloads = []string{"falseshare", "lockcontend"}
	figureTables(t, h2, "6")
	warm := f2.Cache().Stats()
	if warm.Misses != 0 {
		t.Errorf("warm run missed %d times (cold stats %+v, warm stats %+v)",
			warm.Misses, cold, warm)
	}
	if warm.DiskHits == 0 {
		t.Errorf("warm run never touched the disk cache: %+v", warm)
	}
}

// TestBaselineDedupeAcrossFigures pins the satellite: Figures 6 and 8
// share identical configurations (and Figure 10's SENSS arm repeats
// them), so regenerating all three on one farm simulates each unique
// config exactly once — the baselines are canonicalized and shared.
func TestBaselineDedupeAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple figure sweeps")
	}
	f := farm.NewMem(4)
	h := NewHarnessOn(SizeTest, f)
	h.Workloads = []string{"falseshare"}

	figureTables(t, h, "6")
	after6 := f.Cache().Stats()
	// Figure 6 on one workload: 2 L2 classes x 2 proc counts x (base, sec)
	// = 8 unique jobs, all cold.
	if after6.Misses != 8 {
		t.Errorf("figure 6 cold misses = %d, want 8", after6.Misses)
	}

	figureTables(t, h, "8")
	after8 := f.Cache().Stats()
	// Figure 8 re-measures the same grid: zero new simulations.
	if after8.Misses != after6.Misses {
		t.Errorf("figure 8 re-simulated %d jobs that figure 6 already ran",
			after8.Misses-after6.Misses)
	}

	figureTables(t, h, "10")
	after10 := f.Cache().Stats()
	// Figure 10 adds only the combined bus+memory+integrity arm (one new
	// job); its baseline and SENSS arm are already cached.
	if got := after10.Misses - after8.Misses; got != 1 {
		t.Errorf("figure 10 added %d simulations, want 1 (the Mem_OTP_CHash arm)", got)
	}
}

// TestSweepResumesAfterInterruption simulates an interrupted sweep: half
// the Figure 6 grid is pre-warmed, then the full figure runs against the
// same cache directory and must only simulate the other half.
func TestSweepResumesAfterInterruption(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	dir := t.TempDir()
	f, err := farm.New(farm.Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarnessOn(SizeTest, f)
	h.Workloads = []string{"falseshare", "lockcontend"}
	fig, err := h.Figure("6")
	if err != nil {
		t.Fatal(err)
	}
	jobs := fig.Jobs()
	if _, err := f.Run(jobs[:len(jobs)/2]); err != nil {
		t.Fatal(err)
	}

	f2, err := farm.New(farm.Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h2 := NewHarnessOn(SizeTest, f2)
	h2.Workloads = []string{"falseshare", "lockcontend"}
	figureTables(t, h2, "6")
	st := f2.Cache().Stats()
	if int(st.Misses) != len(jobs)-len(jobs)/2 {
		t.Errorf("resumed sweep simulated %d jobs, want %d (the un-warmed half)",
			st.Misses, len(jobs)-len(jobs)/2)
	}

	// The resumed sweep leaves every job of the figure cached on disk.
	warm, err := farm.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !warm.Has(j.Hash()) {
			t.Errorf("job %s has no cache entry after the resumed sweep", j)
		}
	}
}
