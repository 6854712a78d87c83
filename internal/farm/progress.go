package farm

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Reporter prints live fleet progress with an ETA. It reads the host
// wall clock and therefore lives strictly on the host side of the
// determinism boundary: nothing it produces feeds back into results
// or caches. All methods are safe on a nil receiver, so farm
// internals call it unconditionally.
type Reporter struct {
	w io.Writer

	mu sync.Mutex
	//senss-lint:guardedby mu
	total int
	//senss-lint:guardedby mu
	done int
	//senss-lint:guardedby mu
	cached int
	//senss-lint:guardedby mu
	failed int
	//senss-lint:guardedby mu
	start time.Time
}

// NewReporter builds a reporter writing carriage-return progress lines
// to w (conventionally os.Stderr).
func NewReporter(w io.Writer) *Reporter { return &Reporter{w: w} }

// Start begins a fleet of total jobs, cached of which are already
// served.
func (r *Reporter) Start(total, cached int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total, r.done, r.cached, r.failed = total, cached, cached, 0
	r.start = time.Now()
	r.line()
}

// JobDone records one completed simulation.
func (r *Reporter) JobDone(ok bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done++
	if !ok {
		r.failed++
	}
	r.line()
}

// Finish terminates the progress line.
func (r *Reporter) Finish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total == 0 {
		return
	}
	fmt.Fprintf(r.w, "\rfarm: %d/%d jobs done (%d cached, %d failed) in %s%s\n",
		r.done, r.total, r.cached, r.failed,
		time.Since(r.start).Round(time.Millisecond), clearEOL)
}

// clearEOL pads over residue of a longer previous line.
const clearEOL = "          "

// line rewrites the in-place progress line; the ETA extrapolates the
// mean wall time of the simulations completed so far.
func (r *Reporter) line() {
	computed := r.done - r.cached
	eta := ""
	if computed > 0 && r.done < r.total {
		per := time.Since(r.start) / time.Duration(computed)
		eta = fmt.Sprintf(" eta %s", (time.Duration(r.total-r.done) * per).Round(100*time.Millisecond))
	}
	fmt.Fprintf(r.w, "\rfarm: %d/%d jobs (%d cached, %d failed)%s%s",
		r.done, r.total, r.cached, r.failed, eta, clearEOL)
}
