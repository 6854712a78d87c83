package serve

import (
	"errors"
	"sync"
	"time"

	"senss/internal/driver"
)

// State is a hosted session's lifecycle phase.
type State int

// Session states.
const (
	// StateRunning accepts step requests.
	StateRunning State = iota
	// StatePaused rejects steps until resumed.
	StatePaused
	// StateDone holds a finished, validated simulation.
	StateDone
	// StateFailed holds a simulation that ended in an error (security
	// halt, validation failure, limit, or a panic isolated by the pool).
	StateFailed
	// StateClosed marks a session torn down (deleted or evicted).
	StateClosed
)

// String names the state as the API serializes it.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateClosed:
		return "closed"
	}
	return "unknown"
}

// ErrPaused is returned by Hosted.step on a paused session (HTTP 409,
// code "session_paused").
var ErrPaused = errors.New("serve: session paused")

// errClosed is returned for operations on a torn-down session.
var errClosed = errors.New("serve: session closed")

// Hosted is one tenant session: a driver.Session plus serving metadata.
// The mutex serializes every touch of the underlying simulation — the
// sim core stays single-goroutine deterministic while the server's
// handlers and eviction janitor race around it.
type Hosted struct {
	ID     string
	Tenant string
	Spec   SessionSpec
	groups int // quota units held until close

	mu sync.Mutex
	//senss-lint:guardedby mu
	drv *driver.Session
	//senss-lint:guardedby mu
	state State
	//senss-lint:guardedby mu
	steps uint64
	//senss-lint:guardedby mu
	lastTouch time.Time
	//senss-lint:guardedby mu
	finalErr string
}

// newHosted wraps a started driver session.
func newHosted(id string, spec SessionSpec, drv *driver.Session, now time.Time) *Hosted {
	return &Hosted{
		ID:        id,
		Tenant:    spec.Tenant,
		Spec:      spec,
		groups:    spec.Groups(),
		drv:       drv,
		state:     StateRunning,
		lastTouch: now,
	}
}

// step advances the simulation one bounded slice and folds the outcome
// into the session state. Holding h.mu across drv.Step serializes the
// slices, so the simulation stays single-goroutine deterministic.
func (h *Hosted) step(cycles uint64, now time.Time) (StepResponse, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lastTouch = now
	switch h.state {
	case StatePaused:
		return h.stepResponseLocked(), ErrPaused
	case StateClosed:
		return h.stepResponseLocked(), errClosed
	case StateDone, StateFailed:
		// Stepping a finished session is an idempotent no-op: clients
		// polling step-until-done never race a 4xx at the finish line.
		return h.stepResponseLocked(), nil
	}
	done, err := h.drv.Step(cycles)
	h.steps++
	if done {
		if err != nil {
			h.state = StateFailed
			h.finalErr = err.Error()
		} else {
			h.state = StateDone
		}
	}
	return h.stepResponseLocked(), nil
}

func (h *Hosted) stepResponseLocked() StepResponse {
	return StepResponse{
		ID:     h.ID,
		State:  h.state.String(),
		Done:   h.state == StateDone || h.state == StateFailed,
		Cycles: h.drv.Cycles(),
		Steps:  h.steps,
	}
}

// fail records a pool-isolated panic as the session's terminal state.
func (h *Hosted) fail(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == StateRunning || h.state == StatePaused {
		h.state = StateFailed
		h.finalErr = err.Error()
	}
}

// pause moves a running session to paused (idempotent; finished and
// closed sessions are left alone, reported by the returned state).
func (h *Hosted) pause(now time.Time) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lastTouch = now
	if h.state == StateRunning {
		h.state = StatePaused
	}
	return h.state
}

// resume moves a paused session back to running.
func (h *Hosted) resume(now time.Time) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lastTouch = now
	if h.state == StatePaused {
		h.state = StateRunning
	}
	return h.state
}

// info returns the listing record.
func (h *Hosted) info() SessionInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	return SessionInfo{
		ID:       h.ID,
		Tenant:   h.Tenant,
		Workload: h.Spec.Workload,
		State:    h.state.String(),
		Groups:   h.groups,
		Cycles:   h.drv.Cycles(),
		Steps:    h.steps,
	}
}

// snapshot returns the incremental stats payload. Touch is false for
// observation-only reads (the eviction clock keeps ticking).
func (h *Hosted) snapshot(now time.Time, touch bool) StatsResponse {
	h.mu.Lock()
	defer h.mu.Unlock()
	if touch {
		h.lastTouch = now
	}
	return StatsResponse{
		ID:       h.ID,
		Tenant:   h.Tenant,
		Workload: h.Spec.Workload,
		State:    h.state.String(),
		Done:     h.state == StateDone || h.state == StateFailed,
		Cycles:   h.drv.Cycles(),
		Steps:    h.steps,
		Stats:    h.drv.Snapshot(),
		Oracle:   h.drv.OracleReport(),
		Error:    h.finalErr,
	}
}

// idleSince reports the last touch time.
func (h *Hosted) idleSince() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastTouch
}

// stateNow returns the current state.
func (h *Hosted) stateNow() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// close tears the session down (abort + zeroize via driver.Close) and
// reports whether this call performed the teardown — the caller that
// wins releases the quota. Holding h.mu across drv.Close excludes
// concurrent steps, so the session is zeroized exactly once.
func (h *Hosted) close() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == StateClosed {
		return false
	}
	h.state = StateClosed
	h.drv.Close()
	return true
}
