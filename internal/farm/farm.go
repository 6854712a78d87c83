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

// Options configure a Farm. The zero value is a sensible default:
// GOMAXPROCS workers, memory-only cache, one retry after a panic.
type Options struct {
	// Workers bounds how many simulations run concurrently; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheDir is the on-disk result cache directory; "" keeps results
	// in memory only (no files are ever written).
	CacheDir string
	// Retries is the number of extra attempts after a panicking or
	// failing job; 0 selects the default of 1, negative disables retry.
	Retries int
	// Progress, when non-nil, receives live fleet progress and ETA.
	Progress *Reporter
}

// Farm runs fleets of jobs through a bounded worker pool over a shared
// result cache.
type Farm struct {
	workers  int
	retries  int
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
	retries := opts.Retries
	if retries == 0 {
		retries = 1
	} else if retries < 0 {
		retries = 0
	}
	return &Farm{
		workers:  workers,
		retries:  retries,
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
// aggregate error.
func (f *Farm) Run(jobs []Job) (map[string]Result, error) {
	results, _ := f.runAll(jobs, nil)
	return results, failureError(results)
}

// Warm ensures every job is computed and cached, discarding the results.
func (f *Farm) Warm(jobs []Job) error {
	_, err := f.Run(jobs)
	return err
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

// RunSweep executes the jobs as a named, resumable sweep: a manifest in
// the cache directory tracks per-job status and is rewritten atomically
// after every completion. Re-running an interrupted sweep re-enumerates
// the same jobs; those recorded done with live cache entries are served
// without simulating. The returned manifest is in its final, canonical
// (hash-sorted) form.
func (f *Farm) RunSweep(sweep string, jobs []Job) (*Manifest, map[string]Result, error) {
	unique, hashes := dedupe(jobs)
	m := newManifest(sweep, unique, hashes)
	dir := f.cache.Dir()

	// Adopt completed work from a previous interrupted attempt. This is
	// bookkeeping only — the content-addressed cache is what actually
	// short-circuits the recompute — but it preserves failure records.
	if prev, err := LoadManifest(dir, sweep); err == nil && prev != nil {
		for _, pe := range prev.Jobs {
			if pe.Status == StatusDone && f.cache.Has(pe.Hash) {
				m.setStatus(pe.Hash, StatusDone, "")
			}
		}
	}

	var mu sync.Mutex
	persist := func() {
		if dir == "" {
			return
		}
		// Incremental persistence is best-effort; the final write below
		// is the one whose error is surfaced.
		_ = m.write(dir)
	}
	persist()

	results, _ := f.runAll(unique, func(res Result) {
		mu.Lock()
		if res.Err == "" {
			m.setStatus(res.Hash, StatusDone, "")
		} else {
			m.setStatus(res.Hash, StatusFailed, res.Err)
		}
		persist()
		mu.Unlock()
	})

	// Canonical final state (also covers cached results, which the
	// callback path already marked done).
	for h, res := range results {
		if res.Err == "" {
			m.setStatus(h, StatusDone, "")
		} else {
			m.setStatus(h, StatusFailed, res.Err)
		}
	}
	if dir != "" {
		if err := m.write(dir); err != nil {
			return m, results, err
		}
	}
	return m, results, failureError(results)
}

// runAll is the pool core: dedupe, cache check, bounded fan-out. onDone,
// when non-nil, observes every result (cached ones immediately, computed
// ones as they finish, from worker goroutines).
func (f *Farm) runAll(jobs []Job, onDone func(Result)) (map[string]Result, []Job) {
	unique, hashes := dedupe(jobs)
	results := make(map[string]Result, len(unique))
	var todo []Job
	var todoHashes []string
	for i, j := range unique {
		h := hashes[i]
		if run, ok := f.cache.Get(h); ok {
			res := Result{Job: j, Hash: h, Run: run, Cached: true}
			results[h] = res
			if onDone != nil {
				onDone(res)
			}
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
					if onDone != nil {
						onDone(res)
					}
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
	return results, todo
}

// runOne executes one job with panic isolation and retry, caching the
// result on success.
func (f *Farm) runOne(j Job, hash string) Result {
	res := Result{Job: j, Hash: hash}
	var err error
	for attempt := 0; attempt <= f.retries; attempt++ {
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
