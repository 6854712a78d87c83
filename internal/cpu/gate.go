package cpu

import "senss/internal/sim"

// Gate pauses simulated programs at operation boundaries — the mechanism
// the time-sharing scheduler uses to quiesce a group before swapping its
// SHU contexts out (paper §4.2: "all processes on all processors are
// stopped and the contexts are encrypted before being written out").
//
// A program whose Port carries a Gate checks it before every memory
// operation; while the gate is closed the program parks. The scheduler
// closes the gate and waits for every still-running program to park.
type Gate struct {
	closed  bool
	parked  int
	waiters sim.Queue // parked programs
	quiesce sim.Queue // scheduler waiting for full quiescence
}

// Close makes programs park at their next operation boundary.
func (g *Gate) Close() { g.closed = true }

// Open releases every parked program.
func (g *Gate) Open(e *sim.Engine) {
	g.closed = false
	g.parked = 0
	g.waiters.WakeAll(e)
}

// Closed reports the gate state.
func (g *Gate) Closed() bool { return g.closed }

// Parked returns how many programs are currently parked.
func (g *Gate) Parked() int { return g.parked }

// NoteExit tells quiesce waiters that a program finished (and therefore
// will never park). The machine's program wrapper calls it.
func (g *Gate) NoteExit(e *sim.Engine) { g.quiesce.WakeAll(e) }

// check parks the calling program while the gate is closed. Port calls it
// before each operation. The gate is simulated state, so any latency the
// program owes is taken before it is read.
func (g *Gate) check(p *sim.Proc) {
	p.Settle()
	for g.closed {
		g.parked++
		g.quiesce.WakeAll(p.Engine())
		g.waiters.Wait(p)
	}
}

// WaitQuiesce blocks the scheduler until want() programs are parked
// behind the closed gate. want is re-evaluated after every wakeup so
// programs that finish (instead of parking) are accounted for.
func (g *Gate) WaitQuiesce(p *sim.Proc, want func() int) {
	for g.closed && g.parked < want() {
		g.quiesce.Wait(p)
	}
}
