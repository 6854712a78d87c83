// Package serve hosts SENSS simulations behind an HTTP/JSON API: a
// multi-tenant session service in which each session is one
// incrementally executed machine (driver.Session). The pieces mirror
// the paper's resource model scaled to a fleet: a lock-striped session
// table keeps thousands of concurrent handlers off a global lock, a
// service-wide accountant treats the SHU group matrix (§3.2, 1024
// concurrent secured groups) as the scarce resource tenants draw quota
// from, and a bounded worker pool with non-blocking admission turns
// saturation into backpressure (HTTP 429 + Retry-After) instead of
// collapse. Simulations stay bit-deterministic: slicing through
// sim.Engine.RunUntil retires the identical event sequence a monolithic
// run would, so served stats are byte-identical to driver.Run.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"senss/internal/driver"
	"senss/internal/machine"
	"senss/internal/workload"
)

// newDriverSession is the session constructor, a variable so tests can
// substitute a build that panics and prove the pool confines it.
var newDriverSession = func(name string, size workload.Size, cfg machine.Config) (*driver.Session, error) {
	return driver.NewSession(name, size, cfg)
}

// Option defaults.
const (
	// DefaultStepCycles is the slice size when a step request leaves
	// Cycles zero: big enough to finish a small workload in a handful of
	// steps, small enough that one step never monopolizes a worker.
	DefaultStepCycles = 200_000
	// DefaultWorkers bounds concurrent simulation slices.
	DefaultWorkers = 8
	// DefaultBacklog is the admission waiting room beyond the workers.
	DefaultBacklog = 32
	// DefaultRetryAfter is the Retry-After hint on overload responses.
	DefaultRetryAfter = 1 * time.Second
)

// Options configures a Server. The zero value selects the defaults.
type Options struct {
	// Workers bounds concurrent simulation slices (0 = DefaultWorkers).
	Workers int
	// Backlog is the admission waiting room (< 0 = none, 0 = DefaultBacklog).
	Backlog int
	// StepCycles is the default slice size (0 = DefaultStepCycles).
	StepCycles uint64
	// GroupCapacity is the service-wide SHU group budget (0 = core.MaxGroups).
	GroupCapacity int
	// TenantQuota caps one tenant's share of the group budget (0 = none).
	TenantQuota int
	// IdleTimeout evicts sessions untouched for this long (0 = never).
	IdleTimeout time.Duration
	// SweepEvery is the janitor period (0 = no background janitor; Sweep
	// may still be called directly, which is how tests drive eviction).
	SweepEvery time.Duration
	// Now overrides the clock (tests). Nil = time.Now.
	Now func() time.Time
}

// Server is the session host. Create it with New, mount Handler, and
// Close it to tear down every session and stop the janitor.
type Server struct {
	opts    Options
	table   *Table
	quota   *Accountant
	pool    *Pool
	mux     *http.ServeMux
	now     func() time.Time
	evicted atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
}

// New builds a server from opts and starts the eviction janitor when
// both IdleTimeout and SweepEvery are set.
func New(opts Options) *Server {
	if opts.Workers == 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.Backlog == 0 {
		opts.Backlog = DefaultBacklog
	}
	if opts.StepCycles == 0 {
		opts.StepCycles = DefaultStepCycles
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Server{
		opts:  opts,
		table: NewTable(),
		quota: NewAccountant(opts.GroupCapacity, opts.TenantQuota),
		pool:  NewPool(opts.Workers, opts.Backlog),
		mux:   http.NewServeMux(),
		now:   now,
		stop:  make(chan struct{}),
	}
	s.routes()
	if opts.IdleTimeout > 0 && opts.SweepEvery > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleStep)
	s.mux.HandleFunc("POST /v1/sessions/{id}/pause", s.handlePause)
	s.mux.HandleFunc("POST /v1/sessions/{id}/resume", s.handleResume)
	s.mux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleStats)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/server", s.handleServerStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes the server mountable directly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the janitor and tears down every session, releasing its
// groups. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		for _, h := range s.table.Snapshot() {
			if _, ok := s.table.Delete(h.ID); ok {
				s.closeHosted(h)
			}
		}
	})
}

// closeHosted tears one session down and releases its quota exactly
// once (the close() winner releases).
func (s *Server) closeHosted(h *Hosted) {
	if h.close() {
		s.quota.Release(h.Tenant, h.groups)
	}
}

// janitor periodically evicts idle sessions.
func (s *Server) janitor() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// Sweep evicts every session idle longer than IdleTimeout and returns
// how many it removed. Exposed so tests (and operators) can force a
// sweep with an injected clock instead of waiting on the ticker.
func (s *Server) Sweep() int {
	if s.opts.IdleTimeout <= 0 {
		return 0
	}
	cutoff := s.now().Add(-s.opts.IdleTimeout)
	n := 0
	for _, h := range s.table.Snapshot() {
		if h.idleSince().After(cutoff) {
			continue
		}
		if _, ok := s.table.Delete(h.ID); ok {
			s.closeHosted(h)
			s.evicted.Add(1)
			n++
		}
	}
	return n
}

// --- handlers ---

// maxBodyBytes caps every request body the server decodes. A session
// spec or a step request is a few hundred bytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body, read through a maxBodyBytes cap, into
// v. On failure it writes the error response — 413 too_large past the
// cap, 400 bad_request otherwise — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, "too_large", fmt.Sprintf("%s exceeds %d bytes", what, tooLarge.Limit), 0)
	} else {
		writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decoding %s: %v", what, err), 0)
	}
	return false
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	if !decodeBody(w, r, &spec, "session spec") {
		return
	}
	if spec.Tenant == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "tenant is required", 0)
		return
	}
	if spec.Workload == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "workload is required", 0)
		return
	}
	size, err := spec.SizeVal()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	cfg, err := spec.Config()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	// Reserve the SHU groups before building anything: quota exhaustion
	// must not cost a machine assembly, and a failed build must give the
	// reservation back.
	if err := s.quota.Acquire(spec.Tenant, spec.Groups()); err != nil {
		var qe *QuotaError
		if errors.As(err, &qe) {
			writeErr(w, http.StatusTooManyRequests, "groups_exhausted", qe.Error(), int(DefaultRetryAfter/time.Second))
			return
		}
		writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return
	}
	var h *Hosted
	poolErr := s.pool.Do(func() error {
		drv, err := newDriverSession(spec.Workload, size, cfg)
		if err != nil {
			return err
		}
		h = newHosted(s.table.NewID(), spec, drv, s.now())
		return nil
	})
	if poolErr != nil {
		s.quota.Release(spec.Tenant, spec.Groups())
		if errors.Is(poolErr, ErrOverloaded) {
			writeOverloaded(w)
			return
		}
		// driver.NewSession rejects bad configs and unknown workloads with
		// errors, so anything here is a client mistake, not a crash.
		writeErr(w, http.StatusBadRequest, "bad_request", poolErr.Error(), 0)
		return
	}
	s.table.Put(h)
	writeJSON(w, http.StatusCreated, h.info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	var out []SessionInfo
	for _, h := range s.table.Snapshot() {
		if tenant != "" && h.Tenant != tenant {
			continue
		}
		out = append(out, h.info())
	}
	if out == nil {
		out = []SessionInfo{}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Hosted, bool) {
	id := r.PathValue("id")
	h, ok := s.table.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", fmt.Sprintf("no session %q", id), 0)
		return nil, false
	}
	return h, true
}

// stepCycles resolves a client-requested slice against the server bounds:
// the default slice when none is requested, at most ten default slices.
func (s *Server) stepCycles(req StepRequest) uint64 {
	c := req.Cycles
	if c == 0 {
		c = s.opts.StepCycles
	}
	return min(c, 10*s.opts.StepCycles)
}

// stepOnce advances one session slice through the worker pool.
func (s *Server) stepOnce(h *Hosted, cycles uint64) (StepResponse, error) {
	var resp StepResponse
	err := s.pool.Do(func() error {
		var stepErr error
		resp, stepErr = h.step(cycles, s.now())
		return stepErr
	})
	if err != nil {
		// A panic escaping the simulation is confined to this session by
		// the pool; record it so the session reports failed, not wedged.
		if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrPaused) && !errors.Is(err, errClosed) {
			h.fail(err)
		}
		return resp, err
	}
	return resp, nil
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req StepRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req, "step request") {
		return
	}
	resp, err := s.stepOnce(h, s.stepCycles(req))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrOverloaded):
		writeOverloaded(w)
	case errors.Is(err, ErrPaused):
		writeErr(w, http.StatusConflict, "session_paused", err.Error(), 0)
	case errors.Is(err, errClosed):
		writeErr(w, http.StatusNotFound, "not_found", err.Error(), 0)
	default:
		writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
	}
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	h.pause(s.now())
	writeJSON(w, http.StatusOK, h.info())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	h.resume(s.now())
	writeJSON(w, http.StatusOK, h.info())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("follow") == "true" {
		s.followStats(w, r, h)
		return
	}
	writeJSON(w, http.StatusOK, h.snapshot(s.now(), false))
}

// followStats drives the session to completion through the worker pool,
// streaming one ndjson stats snapshot per slice — the "watch my
// simulation converge" mode. The stream ends when the session finishes,
// pauses, disappears, or the client goes away. Overload waits politely
// for a worker instead of erroring: a follower is a background consumer.
func (s *Server) followStats(w http.ResponseWriter, r *http.Request, h *Hosted) {
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func() bool {
		if err := enc.Encode(h.snapshot(s.now(), true)); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}
	if !emit() {
		return
	}
	cycles := s.opts.StepCycles
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		default:
		}
		resp, err := s.stepOnce(h, cycles)
		if errors.Is(err, ErrOverloaded) {
			t := time.NewTimer(50 * time.Millisecond)
			select {
			case <-r.Context().Done():
				t.Stop()
				return
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		if !emit() || err != nil || resp.Done {
			return
		}
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, ok := s.table.Delete(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", fmt.Sprintf("no session %q", id), 0)
		return
	}
	final := h.snapshot(s.now(), false)
	s.closeHosted(h)
	writeJSON(w, http.StatusOK, final)
}

func (s *Server) handleServerStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats assembles the service-wide counters.
func (s *Server) Stats() ServerStats {
	byState := make(map[string]int)
	sessions := s.table.Snapshot()
	for _, h := range sessions {
		byState[h.stateNow().String()]++
	}
	return ServerStats{
		Sessions:       len(sessions),
		ByState:        byState,
		GroupsInUse:    s.quota.InUse(),
		GroupCapacity:  s.quota.Capacity(),
		GroupsByTenant: s.quota.ByTenant(),
		TenantQuota:    s.quota.TenantQuota(),
		Evicted:        s.evicted.Load(),
		InFlight:       s.pool.InFlight(),
		Workers:        s.pool.Workers(),
		Backlog:        s.pool.Backlog(),
	}
}

// --- response helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string, retryAfterSec int) {
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	}
	writeJSON(w, status, ErrorResponse{Code: code, Message: msg, RetryAfterSec: retryAfterSec})
}

func writeOverloaded(w http.ResponseWriter) {
	sec := int(DefaultRetryAfter / time.Second)
	writeErr(w, http.StatusTooManyRequests, "overloaded", ErrOverloaded.Error(), sec)
}
