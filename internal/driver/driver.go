// Package driver executes workload runs on freshly assembled machines.
// It is the single implementation behind the public senss.RunWorkload /
// senss.Compare facade, the internal/farm orchestration pool, and the
// internal/serve session host, so none of them can drift apart in setup,
// validation, or error wording.
//
// Two execution shapes share one core:
//
//   - Run executes a workload to completion in one call.
//   - Session wraps the same machine but advances it in bounded cycle
//     slices (Step), so a host scheduler — the serving layer's worker
//     pool — can interleave thousands of simulations, snapshot stats
//     mid-flight, honor context cancellation between slices, and tear a
//     simulation down early. Slicing is invisible to the simulation
//     (sim.Engine.RunUntil retires the identical event sequence), so a
//     stepped session's final measurements are byte-identical to Run's.
package driver

import (
	"context"
	"fmt"
	"math"

	"senss/internal/machine"
	"senss/internal/oracle"
	"senss/internal/stats"
	"senss/internal/trace"
	"senss/internal/workload"
)

// DefaultSlice is the cycle-slice granularity Session.Run uses between
// cancellation checks when the caller passes 0.
const DefaultSlice = 100_000

// Session is one incrementally executed simulation: a machine plus the
// workload that validates it, advanced by bounded cycle slices. A
// Session is not safe for concurrent use; the host serializes access
// (internal/serve holds a per-session mutex). Abandoned sessions must be
// Closed, or their simulated processors' suspended coroutines leak.
type Session struct {
	name string
	size workload.Size
	cfg  machine.Config

	m      *machine.Machine
	w      workload.Workload
	done   bool
	closed bool
	result stats.Run
	err    error
}

// NewSession validates cfg, assembles the machine, lays out the
// workload, and spawns its programs without running a single cycle.
// Unlike machine.New, configuration mistakes come back as errors, not
// panics — a serving layer cannot crash on a bad request.
func NewSession(name string, size workload.Size, cfg machine.Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, invalidConfig(name, err)
	}
	w, err := workload.New(name, size)
	if err != nil {
		return nil, err
	}
	m := machine.New(cfg)
	progs := w.Setup(m, cfg.Procs)
	if err := m.Start(progs); err != nil {
		return nil, fmt.Errorf("senss: starting %s: %w", name, err)
	}
	return &Session{name: name, size: size, cfg: cfg, m: m, w: w}, nil
}

// invalidConfig wraps a Validate error for the named workload.
func invalidConfig(name string, err error) error {
	return fmt.Errorf("senss: invalid config for %s: %w", name, err)
}

// Name returns the workload name the session runs.
func (s *Session) Name() string { return s.name }

// Config returns the machine configuration the session was built from.
func (s *Session) Config() machine.Config { return s.cfg }

// Cycles returns the current simulated cycle.
func (s *Session) Cycles() uint64 { return s.m.Engine.Now() }

// Done reports whether the simulation has finished (successfully or not).
func (s *Session) Done() bool { return s.done }

// Step advances the simulation by at most maxCycles cycles. When it
// completes the run — normally, by halting on an alarm, or by a
// simulation error — Step finalizes the result exactly the way Run
// does: done is true and Result carries the measurements and verdict.
// Stepping a finished or closed session is a harmless no-op.
func (s *Session) Step(maxCycles uint64) (done bool, err error) {
	if s.done || s.closed {
		return true, s.err
	}
	done, runErr := s.m.Step(maxCycles)
	if !done {
		return false, nil
	}
	s.finish(runErr)
	return true, s.err
}

// finish collects the measurements and applies Run's verdict sequence:
// simulation error, security halt, then workload validation.
func (s *Session) finish(runErr error) {
	s.done = true
	run := s.m.Collect()
	run.Workload = s.name
	s.result = run
	if runErr != nil {
		s.err = fmt.Errorf("senss: running %s: %w", s.name, runErr)
		return
	}
	if halted, why := s.m.Halted(); halted {
		s.err = fmt.Errorf("senss: %s halted: %s", s.name, why)
		return
	}
	if err := s.w.Validate(s.m); err != nil {
		s.err = fmt.Errorf("senss: %s produced wrong results: %w", s.name, err)
	}
}

// Run steps the session to completion in slices of the given size
// (0 selects DefaultSlice), checking ctx between slices. On
// cancellation the session is left paused and resumable; the context's
// error is returned.
func (s *Session) Run(ctx context.Context, slice uint64) (stats.Run, error) {
	if slice == 0 {
		slice = DefaultSlice
	}
	for {
		if err := ctx.Err(); err != nil {
			return s.Snapshot(), err
		}
		done, err := s.Step(slice)
		if done {
			return s.result, err
		}
	}
}

// Result returns the final measurements and verdict of a finished
// session. Calling it before completion returns the zero Run and an
// error.
func (s *Session) Result() (stats.Run, error) {
	if !s.done {
		return stats.Run{}, fmt.Errorf("senss: %s still running (cycle %d)", s.name, s.Cycles())
	}
	return s.result, s.err
}

// Snapshot returns the measurements accumulated so far — the incremental
// per-cycle stats a serving layer streams mid-run. On a finished session
// it equals the final Result record.
func (s *Session) Snapshot() stats.Run {
	if s.done {
		return s.result
	}
	run := s.m.Collect()
	run.Workload = s.name
	return run
}

// OracleReport returns the redacted divergence report when the machine
// ran with the differential oracle attached and it diverged, else nil.
// Reports carry SessionFP fingerprints only — safe to serialize.
func (s *Session) OracleReport() *oracle.Report {
	if s.m.Oracle == nil {
		return nil
	}
	return s.m.Oracle.Report()
}

// Trace returns the bus-transaction recorder when the machine was built
// with a non-zero TraceLimit, else nil.
func (s *Session) Trace() *trace.Recorder { return s.m.Trace }

// Close tears the session down: a still-running simulation is aborted
// (each processor's coroutine stopped and its body unwound, SENSS group
// sessions reclaimed and zeroized). Close never blocks: stopping a
// coroutine is a direct switch into it. Safe to call at any point,
// including after completion, and idempotent. The last Snapshot remains
// readable.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.done {
		s.result = s.Snapshot()
		s.err = fmt.Errorf("senss: %s closed at cycle %d before completion", s.name, s.Cycles())
		s.done = true
		s.m.Abort()
		return
	}
	s.m.Shutdown()
}

// Run builds a machine from cfg, runs the named workload on all
// processors, validates the computed result, and returns the
// measurements. Every call assembles a fresh machine and touches no
// shared mutable state, so concurrent Runs are independent; each
// individual simulation remains single-goroutine deterministic. Run is a
// Session stepped with an unbounded slice — one code path for the batch
// and serving worlds.
func Run(name string, size workload.Size, cfg machine.Config) (stats.Run, error) {
	s, err := NewSession(name, size, cfg)
	if err != nil {
		return stats.Run{}, err
	}
	for {
		done, err := s.Step(math.MaxUint64)
		if done {
			return s.result, err
		}
	}
}

// Compare runs the workload on the unprotected baseline and on cfg,
// returning both measurements. cfg.Security.Mode selects the protected
// variant; the baseline is cfg.Baseline(). cfg is validated first, so a
// rejected config runs no simulation at all.
func Compare(name string, size workload.Size, cfg machine.Config) (base, secure stats.Run, err error) {
	if err := cfg.Validate(); err != nil {
		return base, secure, invalidConfig(name, err)
	}
	base, err = Run(name, size, cfg.Baseline())
	if err != nil {
		return base, secure, err
	}
	secure, err = Run(name, size, cfg)
	return base, secure, err
}
