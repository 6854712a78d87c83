package lint

import (
	"go/ast"
)

// orchestrationPkgs is the explicit allowlist of host-side
// fleet-coordination packages, where goroutine creation and wall-clock
// reads are load-bearing (worker pools, progress ETAs). A package is
// either simulation — deterministic, single-goroutine, banned from host
// state — or orchestration: concurrent, but structurally prevented from
// influencing simulated results (internal/farm keys and orders
// everything observable by job hash). Global math/rand and sync.Map stay
// banned even here.
//
// The "orchfix" entry is the lint_test fixture package (LoadDir surfaces
// fixtures under their base directory name); it pins both the allowance
// and the bans that survive it.
var orchestrationPkgs = map[string]bool{
	"internal/farm": true,
	"orchfix":       true,

	// internal/fuzzing replays fuzz corpus entries for cmd/senss-fuzz and
	// reports host wall time per entry (ReplayCorpus). Audited 2026-08:
	// the wall-clock read exists only for operator-facing progress
	// output; every runner (RunSchedule/RunAdversary/RunConfig) is a pure
	// function of its input bytes with fixed seeds, so timing can never
	// feed back into simulated results.
	"internal/fuzzing": true,

	// internal/serve hosts simulations behind HTTP: goroutines carry the
	// eviction janitor and request handlers, and wall-clock reads drive
	// idle-session eviction, Retry-After hints, and bench latency
	// percentiles. Audited 2026-08: every simulation advances only
	// through driver.Session.Step under the per-session Hosted mutex,
	// and a step's slice boundary cannot change results —
	// sim.Engine.RunUntil retires the identical event sequence a
	// monolithic Run would (pinned byte-identical by
	// TestServeConcurrentSessionsMatchSerial). The clock decides only
	// *whether* a session is stepped or evicted, never what the
	// simulation computes; internal/sim and internal/core stay fully
	// deterministic.
	"internal/serve": true,
}

// AnalyzerNondeterm bans host-nondeterminism primitives from the simulator
// proper (internal/...): wall-clock time, the global math/rand stream,
// sync.Map (whose range order is nondeterministic even under a single
// goroutine), and go statements. Simulated concurrency is the sim
// engine's coroutine procs (Engine.Spawn), which never run in parallel.
//
// Only the orchestration packages listed in orchestrationPkgs are exempt
// from parts of the rule (goroutines and wall-clock reads). Host-side
// drivers under cmd/ may measure wall time; they are out of scope.
func AnalyzerNondeterm() *Analyzer {
	a := &Analyzer{
		Name:  "nondeterm",
		Doc:   "no wall-clock, global math/rand, sync.Map, or goroutines outside orchestration packages",
		Scope: []string{"internal"},
	}
	// bannedTime are time package functions that read host state; pure
	// conversions and constants (time.Duration, time.Millisecond) are fine.
	bannedTime := map[string]bool{
		"Now": true, "Since": true, "Until": true, "After": true,
		"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
		"Sleep": true,
	}
	a.Run = func(pass *Pass) {
		orch := orchestrationPkgs[pass.Pkg.RelPath]
		for _, f := range pass.Pkg.Files {
			for _, imp := range f.Imports {
				switch imp.Path.Value {
				case `"math/rand"`, `"math/rand/v2"`:
					pass.Reportf(imp.Pos(), "import of %s: runs must be reproducible for a fixed seed; use senss/internal/rng", imp.Path.Value)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if !orch {
						pass.Reportf(n.Pos(), "go statement in simulator code: simulated concurrency must be an Engine.Spawn proc to stay deterministic (orchestration packages are allowlisted in nondeterm.go)")
					}
				case *ast.SelectorExpr:
					id, ok := n.X.(*ast.Ident)
					if !ok {
						return true
					}
					switch pass.PkgNameOf(id) {
					case "time":
						if bannedTime[n.Sel.Name] && !orch {
							pass.Reportf(n.Pos(), "time.%s reads host state; simulated time comes from the engine (Proc.Now / Engine.Now)", n.Sel.Name)
						}
					case "sync":
						if n.Sel.Name == "Map" {
							pass.Reportf(n.Pos(), "sync.Map iteration order is nondeterministic; use a plain map with sorted keys")
						}
					}
				}
				return true
			})
		}
	}
	return a
}
