// Package cycle seeds cycle-accounting fixtures: timed-shape methods and
// run-token holders that forget to charge latency (flagged) next to
// charging, delegating, and explicitly waived forms (accepted).
package cycle

// Proc mirrors sim.Proc.
type Proc struct{}

// Sleep charges simulated cycles.
func (p *Proc) Sleep(d uint64) {}

// Park suspends the proc.
func (p *Proc) Park() {}

// Now observes the clock without charging.
func (p *Proc) Now() uint64 { return 0 }

// Transaction mirrors bus.Transaction.
type Transaction struct{ C2C bool }

type silentHook struct{}

// OnTransaction never charges and never waives.
func (h *silentHook) OnTransaction(p *Proc, t *Transaction) uint64 { // want "holds the run token"
	if !t.C2C {
		return 0 // want "returns literal 0 cycles"
	}
	return 0 // want "returns literal 0 cycles"
}

type port struct{ lat uint64 }

// Fetch forgets the fast-path charge.
func (m *port) Fetch(t *Transaction, dst []byte) uint64 {
	if t.C2C {
		return 0 // want "returns literal 0 cycles"
	}
	return m.lat
}

// Store charges on every path: accepted.
func (m *port) Store(t *Transaction, src []byte) uint64 {
	return m.lat
}

// Run charges via Sleep: accepted.
func Run(p *Proc) {
	p.Sleep(3)
}

// Chain delegates the token: accepted.
func Chain(p *Proc) {
	Run(p)
}

// Idle holds the token and only reads the clock.
func Idle(p *Proc) uint64 { // want "holds the run token"
	return p.Now()
}

// Observe is zero-cost by contract and carries the audit note: accepted.
//
// senss-lint:ignore cycleacct fixture: observation is cost-free by contract
func (h *silentHook) Observe(p *Proc, t *Transaction) uint64 {
	if t.C2C {
		return 0
	}
	return 0
}
