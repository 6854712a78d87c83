package lint

// hotpath is the allocation-and-escape discipline analyzer for the
// simulator inner loop (DESIGN.md §13). ROADMAP item 3 requires the
// per-cycle paths — the sim event loop, bus transactions, coherence
// snoops, cache probes, and the memsec pad datapath — to run without
// steady-state heap allocation, because a stray make([]byte) per bus
// transaction silently regresses the throughput that makes paper-scale
// sweeps affordable. The Go compiler cannot enforce "this function does
// not allocate"; this analyzer encodes it.
//
// Annotation grammar:
//
//	//senss-lint:hotpath
//	    in a function's doc comment marks it hot: its body is checked
//	    and every module function it calls must itself be hot or cold.
//	//senss-lint:coldpath <reason>
//	    marks a function as a sanctioned exit from hot code —
//	    init/teardown, first-touch growth, failure diagnostics. The
//	    written reason is mandatory (suppress.go enforces it); the body
//	    is not checked.
//
// Rules inside a hot function:
//
//   - Callee discipline. A call to a module function must target a hot
//     or coldpath-annotated function. Interface method calls are
//     resolved against every module type implementing the interface
//     (go/types method sets), and each unannotated implementation is a
//     finding. Calls through func values (commit callbacks, OnData) are
//     allowed — the closure's creation site is where the discipline
//     bites. External (standard library) calls are limited to a small
//     allowlist; fmt calls are flagged specially since they both
//     allocate and convert every operand to an interface.
//   - No steady-state allocation: make/new, &composite and slice/map
//     literals, growing append, string concatenation and string<->[]byte
//     conversions, func literals (closure headers), boxing at interface
//     conversions (call arguments, assignments, returns), go statements,
//     and defer inside a loop. Map iteration is also flagged: it is the
//     snoop-loop hazard the determinism analyzer fights, and its
//     per-iteration overhead has no place on a per-cycle path.
//   - Failure paths are free. The entire argument subtree of a panic
//     call is exempt — panic(fmt.Sprintf(...)) is the idiom for
//     invariant violations and the simulator is already dead.
//
// Deliberate exceptions use the ordinary audited-waiver protocol:
// //senss-lint:ignore hotpath <reason>. Every waiver in the tree is a
// written decision (first-touch growth, amortized slice append,
// per-miss transaction construction deferred to the ROADMAP-3 pooling
// rewrite).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerHotpath returns the hot-path allocation discipline analyzer.
func AnalyzerHotpath() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "functions marked //senss-lint:hotpath must not allocate and may only call hot, coldpath, or allowlisted callees",
	}
	a.RunModule = func(mp *ModulePass) {
		w := &hotWorld{ModulePass: mp, hot: make(map[*types.Func]bool), cold: make(map[*types.Func]bool)}
		w.run()
	}
	return a
}

// hotAllowedPkgs are the external packages hot code may call: all are
// alloc-free in the forms the simulator uses (the event heap, word
// packing, bit twiddling).
var hotAllowedPkgs = map[string]bool{
	"container/heap":  true,
	"encoding/binary": true,
	"math/bits":       true,
}

// hotWorld is the whole-module analysis state: the shared index plus
// each function's annotation.
type hotWorld struct {
	*ModulePass
	hot, cold map[*types.Func]bool
}

func (w *hotWorld) run() {
	for _, fn := range w.order {
		hot, cold := hotDirective(fn.Decl.Doc)
		if hot && cold {
			w.Reportf(fn.Decl.Pos(), "%s is marked both hotpath and coldpath; pick one", fn.Obj.Name())
			cold = false
		}
		w.hot[fn.Obj], w.cold[fn.Obj] = hot, cold
	}
	for _, fn := range w.order {
		if w.hot[fn.Obj] {
			(&hotChecker{w: w, fn: fn}).check()
		}
	}
}

// annotated reports whether a module function may be called from hot
// code: it is itself hot, or a sanctioned coldpath exit.
func (w *hotWorld) annotated(fn *types.Func) bool { return w.hot[fn] || w.cold[fn] }

// hotDirective classifies a doc comment: hot, cold, or neither.
func hotDirective(doc *ast.CommentGroup) (hot, cold bool) {
	if doc == nil {
		return false, false
	}
	for _, c := range doc.List {
		text := commentText(c)
		if text == "senss-lint:hotpath" {
			hot = true
		}
		if strings.HasPrefix(text, "senss-lint:coldpath") {
			cold = true
		}
	}
	return hot, cold
}

// hotChecker checks one hot function body.
type hotChecker struct {
	w  *hotWorld
	fn *Func
}

func (c *hotChecker) info() *types.Info { return c.fn.Pkg.Info }

func (c *hotChecker) check() {
	c.body(c.fn.Decl.Body)
}

// body checks every node of a body's CFG, unreachable code included: the
// rules are flow-insensitive.
func (c *hotChecker) body(body *ast.BlockStmt) {
	for _, b := range c.w.cfg(body, c.info()).Blocks {
		for _, n := range b.Nodes {
			c.node(n, b.LoopDepth)
		}
	}
}

// node checks one CFG node; loopDepth counts the loops around it.
func (c *hotChecker) node(n ast.Node, loopDepth int) {
	switch t := n.(type) {
	case ast.Expr:
		c.expr(t)
	case *ast.AssignStmt:
		for _, r := range t.Rhs {
			c.expr(r)
		}
		for _, l := range t.Lhs {
			c.expr(l)
		}
		// Boxing at assignment: storing a non-pointer concrete value into
		// an interface-typed location allocates the interface payload.
		if len(t.Lhs) == len(t.Rhs) {
			for i := range t.Lhs {
				c.checkBoxing(c.info().TypeOf(t.Lhs[i]), t.Rhs[i])
			}
		}
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					c.expr(v)
					if i < len(vs.Names) {
						if obj := c.info().Defs[vs.Names[i]]; obj != nil {
							c.checkBoxing(obj.Type(), v)
						}
					}
				}
			}
		}
	case *ast.ExprStmt:
		c.expr(t.X)
	case *ast.RangeStmt:
		if tx := c.info().TypeOf(t.X); tx != nil {
			if _, isMap := tx.Underlying().(*types.Map); isMap {
				c.w.Reportf(t.For, "map iteration in hot code; use a slice or flat array")
			}
		}
		c.expr(t.X)
	case *ast.ReturnStmt:
		sig, _ := c.fn.Obj.Type().(*types.Signature)
		for i, r := range t.Results {
			c.expr(r)
			if sig != nil && len(t.Results) == sig.Results().Len() {
				c.checkBoxing(sig.Results().At(i).Type(), r)
			}
		}
	case *ast.DeferStmt:
		if loopDepth > 0 {
			c.w.Reportf(t.Defer, "defer inside a loop allocates per iteration in hot code")
		}
		c.call(t.Call)
	case *ast.GoStmt:
		c.w.Reportf(t.Go, "go statement in hot code; the sim engine owns all concurrency")
		c.call(t.Call)
	case *ast.SendStmt:
		c.expr(t.Chan)
		c.expr(t.Value)
		if ch, ok := c.info().TypeOf(t.Chan).Underlying().(*types.Chan); ok {
			c.checkBoxing(ch.Elem(), t.Value)
		}
	case *ast.IncDecStmt:
		c.expr(t.X)
	}
}

func (c *hotChecker) expr(e ast.Expr) {
	switch t := e.(type) {
	case nil:
	case *ast.ParenExpr:
		c.expr(t.X)
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			if cl, ok := t.X.(*ast.CompositeLit); ok {
				c.w.Reportf(t.Pos(), "heap allocation in hot code: &%s composite literal escapes",
					typeName(c.info().TypeOf(cl)))
				c.compositeElts(cl)
				return
			}
		}
		c.expr(t.X)
	case *ast.CompositeLit:
		if ct := c.info().TypeOf(t); ct != nil {
			switch ct.Underlying().(type) {
			case *types.Slice:
				c.w.Reportf(t.Pos(), "heap allocation in hot code: slice literal")
			case *types.Map:
				c.w.Reportf(t.Pos(), "heap allocation in hot code: map literal")
			}
		}
		c.compositeElts(t)
	case *ast.FuncLit:
		c.w.Reportf(t.Pos(), "closure (func literal) allocates in hot code; hoist it or restructure")
		// The closure runs from hot code: its body is held to the same
		// discipline.
		c.body(t.Body)
	case *ast.BinaryExpr:
		c.expr(t.X)
		c.expr(t.Y)
		if t.Op == token.ADD {
			if bt := c.info().TypeOf(t); bt != nil {
				if b, ok := bt.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					c.w.Reportf(t.OpPos, "string concatenation allocates in hot code")
				}
			}
		}
	case *ast.CallExpr:
		c.call(t)
	case *ast.SelectorExpr:
		c.expr(t.X)
	case *ast.IndexExpr:
		c.expr(t.X)
		c.expr(t.Index)
	case *ast.SliceExpr:
		c.expr(t.X)
		c.expr(t.Low)
		c.expr(t.High)
		c.expr(t.Max)
	case *ast.StarExpr:
		c.expr(t.X)
	case *ast.TypeAssertExpr:
		c.expr(t.X)
	case *ast.KeyValueExpr:
		c.expr(t.Value)
	}
}

func (c *hotChecker) compositeElts(cl *ast.CompositeLit) {
	for _, el := range cl.Elts {
		c.expr(el)
	}
}

// call classifies one call expression: conversion, builtin, module
// callee, interface dispatch, or external.
func (c *hotChecker) call(call *ast.CallExpr) {
	info := c.info()

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			c.checkConversion(call, tv.Type, info.TypeOf(call.Args[0]))
			c.expr(call.Args[0])
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.w.Reportf(call.Pos(), "make allocates in hot code")
			case "new":
				c.w.Reportf(call.Pos(), "new allocates in hot code")
			case "append":
				c.w.Reportf(call.Pos(), "append may allocate (slice growth) in hot code")
			case "panic":
				// Failure path: the whole argument subtree is exempt.
				return
			}
			for _, a := range call.Args {
				c.expr(a)
			}
			return
		}
	}

	callee := staticCallee(info, call)
	reported := false
	if callee != nil {
		if _, isModule := c.w.funcs[callee]; isModule {
			if !c.w.annotated(callee) {
				c.w.Reportf(call.Pos(),
					"hot function %s calls %s, which is not marked //senss-lint:hotpath (or coldpath)",
					c.fn.Obj.Name(), callee.Name())
				reported = true
			}
		} else if isInterfaceMethod(callee) {
			var badNames []string
			for _, impl := range c.w.implementations(callee) {
				if !c.w.annotated(impl) {
					badNames = append(badNames, funcDisplay(impl))
				}
			}
			if len(badNames) > 0 {
				sort.Strings(badNames)
				c.w.Reportf(call.Pos(),
					"interface call %s resolves to unannotated implementation(s): %s",
					callee.Name(), strings.Join(badNames, ", "))
				reported = true
			}
		} else {
			pkgPath := ""
			if callee.Pkg() != nil {
				pkgPath = callee.Pkg().Path()
			}
			switch {
			case pkgPath == "" || hotAllowedPkgs[pkgPath]:
				// Universe-scope (error.Error) or allowlisted package.
			case c.w.unloadedModulePkg(pkgPath):
				// Module code outside a scoped run: its annotations are
				// not visible here; the ./... run judges this call.
			case pkgPath == "fmt":
				c.w.Reportf(call.Pos(), "fmt.%s allocates in hot code (formatting state and boxed operands)", callee.Name())
				reported = true
			default:
				c.w.Reportf(call.Pos(), "hot function %s calls %s.%s, outside the hot-path allowlist",
					c.fn.Obj.Name(), pkgPath, callee.Name())
				reported = true
			}
		}
	}

	// Boxing at call arguments (skipped when the call itself was already
	// reported — one finding per site keeps waivers readable).
	if !reported {
		if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig != nil {
			c.checkArgBoxing(call, sig)
		}
	}

	c.expr(call.Fun)
	for _, a := range call.Args {
		c.expr(a)
	}
}

// checkConversion flags string<->bytes conversions and explicit boxing.
func (c *hotChecker) checkConversion(call *ast.CallExpr, dst, src types.Type) {
	if dst == nil || src == nil {
		return
	}
	du, su := dst.Underlying(), src.Underlying()
	if b, ok := du.(*types.Basic); ok && b.Info()&types.IsString != 0 {
		if _, fromSlice := su.(*types.Slice); fromSlice {
			c.w.Reportf(call.Pos(), "string conversion allocates in hot code")
			return
		}
	}
	if ds, ok := du.(*types.Slice); ok {
		if el, ok := ds.Elem().Underlying().(*types.Basic); ok &&
			(el.Kind() == types.Uint8 || el.Kind() == types.Int32) {
			if b, ok := su.(*types.Basic); ok && b.Info()&types.IsString != 0 {
				c.w.Reportf(call.Pos(), "string conversion allocates in hot code")
				return
			}
		}
	}
	if boxes(dst, src) {
		c.w.Reportf(call.Pos(), "interface conversion boxes %s in hot code", typeName(src))
	}
}

// checkArgBoxing flags non-pointer concrete arguments passed to
// interface-typed parameters (including variadic ...any).
func (c *hotChecker) checkArgBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis != token.NoPos {
				continue // xs... passes the slice through
			}
			if sl, ok := params.At(n - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < n:
			pt = params.At(i).Type()
		}
		c.checkBoxing(pt, arg)
	}
}

// checkBoxing flags storing e into a dst-typed location when that boxes.
func (c *hotChecker) checkBoxing(dst types.Type, e ast.Expr) {
	if src := c.info().TypeOf(e); boxes(dst, src) {
		c.w.Reportf(e.Pos(), "interface conversion boxes %s in hot code", typeName(src))
	}
}

// boxes reports whether assigning a src-typed value to a dst-typed
// location allocates an interface payload: dst is an interface, src is
// concrete, and src's representation does not fit the interface data
// word (pointers, channels, maps, funcs, and unsafe pointers do).
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := src.Underlying().(*types.Interface); ok {
		return false
	}
	switch u := src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

// typeName renders a type tersely for diagnostics.
func typeName(t types.Type) string {
	if t == nil {
		return "value"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
