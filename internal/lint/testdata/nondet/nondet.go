// Package nondet seeds nondeterm-analyzer fixtures: host time, global
// math/rand, sync.Map, and goroutine creation in simulator code.
package nondet

import (
	"math/rand" // want "use senss/internal/rng"
	"sync"
	"time"
)

// Stamp reads the host clock.
func Stamp() uint64 {
	return uint64(time.Now().UnixNano()) // want "time.Now reads host state"
}

// Wait sleeps host time.
func Wait() {
	time.Sleep(time.Millisecond) // want "time.Sleep reads host state"
}

// Draw consumes the global math/rand stream (the import is the finding).
func Draw() int {
	return rand.Intn(6)
}

// Shared iterates nondeterministically even single-threaded.
var Shared sync.Map // want "sync.Map iteration order is nondeterministic"

// Race spawns a goroutine instead of an engine proc.
func Race(fn func()) {
	go fn() // want "go statement in simulator code"
}

// Dur is a pure conversion: accepted.
func Dur(cycles uint64) time.Duration {
	return time.Duration(cycles) * time.Nanosecond
}
