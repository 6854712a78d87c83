package farm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"senss/internal/driver"
	"senss/internal/stats"
)

// RunFunc executes one job. The default runner is driver.Run — the same
// implementation behind the public senss.RunWorkload facade; tests
// substitute instrumented runners.
type RunFunc func(Job) (stats.Run, error)

// retries is the number of extra attempts a panicking or failing job
// gets before its failure is recorded.
const retries = 1

// Options configure a Farm. The zero value is a sensible default:
// GOMAXPROCS workers and a memory-only cache.
type Options struct {
	// Workers bounds how many simulations run concurrently; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheDir is the on-disk result cache directory; "" keeps results
	// in memory only (no files are ever written).
	CacheDir string
	// Progress, when non-nil, receives live fleet progress and ETA.
	Progress *Reporter
}

// Farm runs fleets of jobs through a bounded worker pool over a shared
// result cache.
type Farm struct {
	workers  int
	cache    *Cache
	progress *Reporter
	run      RunFunc
}

// New builds a farm; it fails only when the cache directory cannot be
// created.
func New(opts Options) (*Farm, error) {
	cache, err := NewCache(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Farm{
		workers:  workers,
		cache:    cache,
		progress: opts.Progress,
		run:      func(j Job) (stats.Run, error) { return driver.Run(j.Workload, j.Size, j.Config) },
	}, nil
}

// NewMem returns a memory-only farm; workers <= 0 selects GOMAXPROCS.
func NewMem(workers int) *Farm {
	f, err := New(Options{Workers: workers})
	if err != nil {
		// NewCache("") cannot fail.
		panic(err)
	}
	return f
}

// SetRunner substitutes the job execution function (tests).
func (f *Farm) SetRunner(fn RunFunc) { f.run = fn }

// Cache exposes the underlying result cache (status and gc tooling).
func (f *Farm) Cache() *Cache { return f.cache }

// Result is the outcome of one job.
type Result struct {
	Job      Job
	Hash     string
	Run      stats.Run
	Cached   bool // served from the cache without simulating
	Attempts int  // simulation attempts (0 when cached)
	Err      string
}

// Run executes the jobs — deduplicated by content hash, cache consulted
// first, misses fanned out across the worker pool — and returns every
// result keyed by job hash. Individual job failures do not abort the
// fleet; they are recorded per-result and folded into one deterministic
// aggregate error. Because every success is cached as it finishes, a
// fleet that is interrupted and run again simulates only what it had
// not finished.
func (f *Farm) Run(jobs []Job) (map[string]Result, error) {
	unique, hashes := dedupe(jobs)
	results := make(map[string]Result, len(unique))
	var todo []Job
	var todoHashes []string
	for i, j := range unique {
		h := hashes[i]
		if run, ok := f.cache.Get(h); ok {
			results[h] = Result{Job: j, Hash: h, Run: run, Cached: true}
		} else {
			todo = append(todo, j)
			todoHashes = append(todoHashes, h)
		}
	}
	f.progress.Start(len(unique), len(unique)-len(todo))
	if len(todo) > 0 {
		var mu sync.Mutex
		type task struct {
			job  Job
			hash string
		}
		ch := make(chan task)
		var wg sync.WaitGroup
		workers := f.workers
		if workers > len(todo) {
			workers = len(todo)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range ch {
					res := f.runOne(t.job, t.hash)
					mu.Lock()
					results[t.hash] = res
					mu.Unlock()
					f.progress.JobDone(res.Err == "")
				}
			}()
		}
		for i, j := range todo {
			ch <- task{job: j, hash: todoHashes[i]}
		}
		close(ch)
		wg.Wait()
	}
	f.progress.Finish()
	return results, failureError(results)
}

// Get returns the result of a single job, computing and caching it if
// absent. Single-job lookups bypass the pool and the progress reporter.
func (f *Farm) Get(j Job) (stats.Run, error) {
	h := j.Hash()
	if run, ok := f.cache.Get(h); ok {
		return run, nil
	}
	res := f.runOne(j, h)
	if res.Err != "" {
		return res.Run, errors.New(res.Err)
	}
	return res.Run, nil
}

// runOne executes one job with panic isolation and retry, caching the
// result on success.
func (f *Farm) runOne(j Job, hash string) Result {
	res := Result{Job: j, Hash: hash}
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		res.Attempts = attempt + 1
		var run stats.Run
		run, err = f.exec(j)
		if err == nil {
			err = f.cache.Put(j, hash, run)
		}
		if err == nil {
			res.Run = run
			return res
		}
	}
	res.Err = err.Error()
	return res
}

// exec invokes the runner with panic isolation: a panicking simulation
// (or a runner bug) becomes an error confined to its job, so one bad
// configuration cannot take down a whole sweep.
func (f *Farm) exec(j Job) (run stats.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("farm: job %s (%s) panicked: %v", j.Hash(), j, r)
		}
	}()
	return f.run(j)
}

// failureError folds failed results into one deterministic error
// (ordered by hash), or nil when every job succeeded.
func failureError(results map[string]Result) error {
	var failed []string
	for h, r := range results {
		if r.Err != "" {
			failed = append(failed, h)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	sort.Strings(failed)
	first := results[failed[0]]
	return fmt.Errorf("farm: %d of %d jobs failed; first (%s, job %s): %s",
		len(failed), len(results), first.Hash, first.Job, first.Err)
}
