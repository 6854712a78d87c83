package farm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"senss/internal/machine"
	"senss/internal/stats"
	"senss/internal/workload"
)

// testJob builds a distinct job by varying the machine seed.
func testJob(seed uint64) Job {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	return Job{Workload: "falseshare", Size: workload.SizeTest, Config: cfg}
}

// countingRunner returns a fake runner that tallies executions per job
// hash and synthesizes a deterministic Run from the seed.
func countingRunner(calls *sync.Map) RunFunc {
	return func(j Job) (stats.Run, error) {
		c, _ := calls.LoadOrStore(j.Hash(), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		return stats.Run{Workload: j.Workload, Cycles: j.Config.Seed * 1000}, nil
	}
}

func callCount(calls *sync.Map, hash string) int64 {
	c, ok := calls.Load(hash)
	if !ok {
		return 0
	}
	return c.(*atomic.Int64).Load()
}

func TestHashStableAndDiscriminating(t *testing.T) {
	a, b := testJob(1), testJob(1)
	if a.Hash() != b.Hash() {
		t.Fatalf("equal jobs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 32 {
		t.Fatalf("hash length = %d, want 32", len(a.Hash()))
	}
	c := testJob(2)
	if a.Hash() == c.Hash() {
		t.Fatal("distinct seeds collide")
	}
	e := a
	e.Config.Security.Mode = machine.SecurityBus
	if a.Hash() == e.Hash() {
		t.Fatal("security mode must enter the hash")
	}
}

func TestRunDedupesAndCaches(t *testing.T) {
	f := NewMem(4)
	var calls sync.Map
	f.SetRunner(countingRunner(&calls))

	jobs := []Job{testJob(1), testJob(2), testJob(1), testJob(2), testJob(1)}
	results, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (deduplicated)", len(results))
	}
	for _, j := range []Job{testJob(1), testJob(2)} {
		if n := callCount(&calls, j.Hash()); n != 1 {
			t.Errorf("job %s simulated %d times, want exactly 1", j, n)
		}
	}

	// A second fleet over the same configs is served from cache.
	results2, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for h, r := range results2 {
		if !r.Cached {
			t.Errorf("second run of %s not served from cache", h)
		}
		if r.Run.Cycles != results[h].Run.Cycles {
			t.Errorf("cached result diverged for %s", h)
		}
	}
}

func TestPanicIsolationAndRetry(t *testing.T) {
	f := NewMem(2)
	var firstAttempt sync.Map
	flaky := testJob(7)
	f.SetRunner(func(j Job) (stats.Run, error) {
		if j.Hash() == flaky.Hash() {
			if _, loaded := firstAttempt.LoadOrStore(j.Hash(), true); !loaded {
				panic("transient explosion")
			}
		}
		return stats.Run{Cycles: 42}, nil
	})
	results, err := f.Run([]Job{flaky, testJob(8)})
	if err != nil {
		t.Fatalf("retry should have recovered the panicking job: %v", err)
	}
	res := results[flaky.Hash()]
	if res.Attempts != 2 {
		t.Errorf("flaky job attempts = %d, want 2", res.Attempts)
	}
	if res.Run.Cycles != 42 {
		t.Errorf("flaky job result = %d, want 42", res.Run.Cycles)
	}
}

func TestPersistentFailureConfined(t *testing.T) {
	f := NewMem(2)
	bad := testJob(9)
	f.SetRunner(func(j Job) (stats.Run, error) {
		if j.Hash() == bad.Hash() {
			panic("deterministic explosion")
		}
		return stats.Run{Cycles: 1}, nil
	})
	results, err := f.Run([]Job{bad, testJob(10), testJob(11)})
	if err == nil {
		t.Fatal("want aggregate error for the failing job")
	}
	if !strings.Contains(err.Error(), "1 of 3 jobs failed") {
		t.Errorf("aggregate error = %q", err)
	}
	if !strings.Contains(results[bad.Hash()].Err, "panicked") {
		t.Errorf("failure not recorded as panic: %q", results[bad.Hash()].Err)
	}
	for _, good := range []Job{testJob(10), testJob(11)} {
		if results[good.Hash()].Err != "" {
			t.Errorf("healthy job %s infected by neighbour's panic", good)
		}
	}
}

// TestErrorRetriedOnce: a job that keeps failing is attempted exactly
// 1+retries times, and its result records the attempts and the error.
func TestErrorRetriedOnce(t *testing.T) {
	f := NewMem(1)
	var calls sync.Map
	f.SetRunner(func(j Job) (stats.Run, error) {
		c, _ := calls.LoadOrStore(j.Hash(), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		return stats.Run{}, fmt.Errorf("boom")
	})
	j := testJob(3)
	results, err := f.Run([]Job{j})
	if err == nil {
		t.Fatal("want error")
	}
	if n := callCount(&calls, j.Hash()); n != 1+retries {
		t.Fatalf("failing job ran %d times, want %d", n, 1+retries)
	}
	if res := results[j.Hash()]; res.Attempts != 1+retries || res.Err != "boom" {
		t.Errorf("result attempts=%d err=%q, want %d and \"boom\"", res.Attempts, res.Err, 1+retries)
	}
}

func TestGetComputesOnceThenHits(t *testing.T) {
	f := NewMem(1)
	var calls sync.Map
	f.SetRunner(countingRunner(&calls))
	j := testJob(5)
	for i := 0; i < 3; i++ {
		run, err := f.Get(j)
		if err != nil {
			t.Fatal(err)
		}
		if run.Cycles != 5000 {
			t.Fatalf("Get result = %d, want 5000", run.Cycles)
		}
	}
	if n := callCount(&calls, j.Hash()); n != 1 {
		t.Fatalf("Get simulated %d times, want 1", n)
	}
}

// TestDefaultRunnerRealSimulation exercises the driver-backed default
// runner end to end on one small real job.
func TestDefaultRunnerRealSimulation(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Procs = 2
	cfg.Coherence.L1Size = 4 << 10
	cfg.Coherence.L2Size = 16 << 10
	cfg.CPU.CodeBytes = 2 << 10
	f := NewMem(1)
	run, err := f.Get(Job{Workload: "falseshare", Size: workload.SizeTest, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if run.Cycles == 0 || run.BusTotal == 0 {
		t.Fatalf("implausible run: %+v", run)
	}
}
