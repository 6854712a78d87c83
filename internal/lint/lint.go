// Package lint is senss-lint: a domain-specific static-analysis suite for
// this repository, built only on the standard library's go/parser, go/ast
// and go/types (the module is developed offline, so no x/tools).
//
// The simulator depends on two properties the Go compiler cannot check:
//
//   - Determinism. DESIGN.md §6 requires bit-reproducible runs for a fixed
//     seed: the sim engine runs one proc at a time, so the only ways
//     nondeterminism can creep in are map iteration order reaching
//     scheduling/stats/trace output, host time, global math/rand, sync.Map,
//     or goroutines.
//   - Secret hygiene. Group session keys, bus masks, and memory pads (§4 of
//     the paper) must never flow into logs, traces, or error strings — the
//     classic implementation pitfall of pad-based schemes.
//
// Each Analyzer encodes one such property. The cmd/senss-lint driver runs
// the registry over every package in the module; deliberate exceptions are
// annotated in source with senss-lint:ignore directives that require a
// written reason, so every waiver is an audited decision.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one check in the registry.
type Analyzer struct {
	// Name is the identifier used in reports and ignore directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Scope restricts the analyzer to packages whose module-relative path
	// has one of these prefixes ("" matches the module root package, "cmd"
	// matches every command). A nil scope applies everywhere.
	Scope []string
	// Run inspects one package and reports findings through the pass.
	// Exactly one of Run and RunModule is set.
	Run func(*Pass)
	// RunModule inspects every package at once — the shape interprocedural
	// analyses need, since a flow can enter in one package and sink in
	// another. Scope still filters which packages' findings are kept.
	RunModule func(*ModulePass)
}

// applies reports whether the analyzer covers the package at relPath.
func (a *Analyzer) applies(relPath string) bool {
	if a.Scope == nil {
		return true
	}
	for _, p := range a.Scope {
		if relPath == p || strings.HasPrefix(relPath, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when type information is missing
// (analyzers degrade gracefully on packages with type errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(e)
}

// PkgNameOf resolves an identifier to the import path of the package it
// names ("" when it is not a package name). This is how analyzers tell a
// genuine fmt.Errorf from a local variable that happens to be called fmt.
func (p *Pass) PkgNameOf(id *ast.Ident) string {
	if p.Pkg.Info == nil {
		return ""
	}
	if pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// CalleePkgPath resolves the import path of the package a call's callee
// belongs to, handling both pkg.Func selectors and method values with
// declared package-level receivers. Returns "" when unresolvable.
func (p *Pass) CalleePkgPath(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if path := p.PkgNameOf(id); path != "" {
			return path
		}
	}
	if p.Pkg.Info != nil {
		if obj := p.Pkg.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path()
		}
	}
	return ""
}

// ModulePass carries one (analyzer, whole module) unit of work for
// analyzers that need the cross-package view. The embedded index
// (interproc.go) is built once per run and shared by every module
// analyzer that covers the same packages.
type ModulePass struct {
	Analyzer *Analyzer
	*index
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Registry returns the default analyzer suite, in reporting order.
func Registry() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminism(),
		AnalyzerNondeterm(),
		AnalyzerSecrets(),
		AnalyzerCycleAcct(),
		AnalyzerDroppedErr(),
		AnalyzerTaintflow(),
		AnalyzerHotpath(),
		AnalyzerLockguard(),
	}
}

// RegistryNames returns the analyzer names of the default suite — the
// namespace senss-lint:ignore directives are validated against.
func RegistryNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Registry() {
		names[a.Name] = true
	}
	return names
}

// RunAnalyzers executes every applicable analyzer over the packages,
// filters findings through senss-lint:ignore directives, and appends a
// diagnostic for each malformed or reason-less directive. The result is
// deduplicated and sorted by position, analyzer, and message.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	// Waiver directives may name any analyzer of the default suite plus
	// whatever extra analyzers this run carries (fixture tests construct
	// ad-hoc ones).
	known := RegistryNames()
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sups := make([]*suppressions, len(pkgs))
	for i, pkg := range pkgs {
		sups[i] = collectSuppressions(pkg, known)
	}
	// suppressed consults every package's waivers: module-level analyzers
	// report into files of any package, and supEntry.covers matches on the
	// diagnostic's filename, so scanning all sets is exact.
	suppressed := func(d Diagnostic) bool {
		for _, sup := range sups {
			if sup.suppresses(d) {
				return true
			}
		}
		return false
	}
	var out []Diagnostic
	for i, pkg := range pkgs {
		sup := sups[i]
		for _, a := range analyzers {
			if a.Run == nil || !a.applies(pkg.RelPath) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, report: func(d Diagnostic) {
				if !sup.suppresses(d) {
					out = append(out, d)
				}
			}}
			a.Run(pass)
		}
		out = append(out, sup.problems...)
	}
	// full is the index over every package, built on first use and
	// shared by the module analyzers whose scope covers them all.
	var full *index
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		// scoped filters the module view down to the packages the
		// analyzer covers, so Scope keeps meaning the same thing in both
		// modes.
		var scoped []*Package
		for _, pkg := range pkgs {
			if a.applies(pkg.RelPath) {
				scoped = append(scoped, pkg)
			}
		}
		var x *index
		switch {
		case len(scoped) == 0:
			continue
		case len(scoped) < len(pkgs):
			x = newIndex(scoped)
		default:
			if full == nil {
				full = newIndex(pkgs)
			}
			x = full
		}
		a.RunModule(&ModulePass{Analyzer: a, index: x, report: func(d Diagnostic) {
			if !suppressed(d) {
				out = append(out, d)
			}
		}})
	}
	// One total order, then deduplication: module analyzers revisit
	// functions across fixpoint passes and may report one flow twice.
	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Analyzer, b.Analyzer),
			cmp.Compare(a.Message, b.Message),
		)
	})
	return slices.Compact(out)
}
