package lint

// interproc is the module index the interprocedural analyzers share
// (taintflow, hotpath, lockguard; DESIGN.md §9). RunAnalyzers builds it
// once per run and hands it to every RunModule analyzer on its
// ModulePass: the function and named-type index, the one interface
// resolver, static callee lookup, the bounded quiet-fixpoint-then-report
// driver, and each function body's control-flow graph (cfg.go). Each
// analyzer keeps only its own lattice and transfer code.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Func is one module function with a body.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Recv is the receiver (nil for plain functions); Params are the
	// declared parameters, in order.
	Recv   *types.Var
	Params []*types.Var
}

// index is the whole-module view of one analysis run.
type index struct {
	// Pkgs is every package in the run, sorted by import path, sharing
	// one token.FileSet and one type-checked object space (a *types.Var
	// seen from two packages is the same pointer).
	Pkgs []*Package
	Fset *token.FileSet

	funcs map[*types.Func]*Func
	order []*Func // source order
	// named lists every module named type, for interface resolution.
	named     []types.Type
	implCache map[*types.Func][]*types.Func
	// loaded is the set of import paths in this run, and modulePath the
	// module they belong to: on a scoped run (senss-lint ./internal/bus)
	// module packages outside the scope are type-checked without their
	// comments, so their annotations are invisible and calls into them
	// must not be judged. The ./... run remains the authority.
	loaded     map[string]bool
	modulePath string
	// cfgs holds each function or func-literal body's graph, built on
	// first use and shared by every analyzer and fixpoint round.
	cfgs map[*ast.BlockStmt]*CFG
}

// newIndex indexes every function body and named type of pkgs.
func newIndex(pkgs []*Package) *index {
	x := &index{
		Pkgs:      pkgs,
		funcs:     make(map[*types.Func]*Func),
		implCache: make(map[*types.Func][]*types.Func),
		loaded:    make(map[string]bool),
		cfgs:      make(map[*ast.BlockStmt]*CFG),
	}
	if len(pkgs) > 0 {
		x.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		x.loaded[pkg.ImportPath] = true
		if x.modulePath == "" {
			x.modulePath = strings.TrimSuffix(strings.TrimSuffix(pkg.ImportPath, pkg.RelPath), "/")
		}
		if pkg.Info == nil || pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{Obj: obj, Decl: fd, Pkg: pkg}
				sig := obj.Type().(*types.Signature)
				fn.Recv = sig.Recv()
				for i := 0; i < sig.Params().Len(); i++ {
					fn.Params = append(fn.Params, sig.Params().At(i))
				}
				x.funcs[obj] = fn
				x.order = append(x.order, fn)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // already sorted
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				x.named = append(x.named, tn.Type())
			}
		}
	}
	sort.Slice(x.order, func(i, j int) bool {
		return x.order[i].Decl.Pos() < x.order[j].Decl.Pos()
	})
	return x
}

// cfg returns the control-flow graph of body, a function or func-literal
// body type-checked into info.
func (x *index) cfg(body *ast.BlockStmt, info *types.Info) *CFG {
	g := x.cfgs[body]
	if g == nil {
		g = buildCFG(body, info)
		x.cfgs[body] = g
	}
	return g
}

// unloadedModulePkg reports whether pkgPath is a module package outside
// this run's scope — annotated or not, we cannot tell.
func (x *index) unloadedModulePkg(pkgPath string) bool {
	if x.loaded[pkgPath] || x.modulePath == "" {
		return false
	}
	return pkgPath == x.modulePath || strings.HasPrefix(pkgPath, x.modulePath+"/")
}

// implementations resolves an interface method to every concrete module
// method that can stand behind it (go/types method sets). It returns nil
// for anything that is not an interface method.
func (x *index) implementations(callee *types.Func) []*types.Func {
	if impls, ok := x.implCache[callee]; ok {
		return impls
	}
	var out []*types.Func
	if isInterfaceMethod(callee) {
		iface := callee.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, t := range x.named {
			if types.IsInterface(t) {
				continue
			}
			pt := types.NewPointer(t)
			if !types.Implements(t, iface) && !types.Implements(pt, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(pt, true, callee.Pkg(), callee.Name())
			if m, ok := obj.(*types.Func); ok && x.funcs[m] != nil {
				out = append(out, m)
			}
		}
	}
	x.implCache[callee] = out
	return out
}

// targets lists the module functions a call to callee may run: callee
// itself when the module has its body, otherwise every module
// implementation of an interface method (none for external functions).
func (x *index) targets(callee *types.Func) []*types.Func {
	if x.funcs[callee] != nil {
		return []*types.Func{callee}
	}
	return x.implementations(callee)
}

// staticCallee resolves the *types.Func a call names, or nil for func
// values, conversions, and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// funcDisplay renders a callee for messages: Type.method or pkg.func.
func funcDisplay(f *types.Func) string {
	if sig, _ := f.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + f.Name()
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}

// converge calls round until it reports no change, at most rounds times.
// Every analyzer's lattice is finite and its transfer monotone, so the
// bound only guards against an oscillating transfer bug.
func converge(rounds int, round func() (changed bool)) {
	for i := 0; i < rounds; i++ {
		if !round() {
			return
		}
	}
}

// solver drives the quiet-fixpoint-then-report loop of the summary-based
// analyzers: transfer code sets changed whenever a summary grows, and
// reportf is silent until the final pass, which runs against settled
// summaries. RunAnalyzers deduplicates what the passes repeat.
type solver struct {
	*ModulePass
	changed   bool
	reporting bool
}

// solve sweeps visit over every function in source order until a sweep
// changes no summary (at most rounds sweeps), then sweeps once more with
// reporting on.
func (s *solver) solve(rounds int, visit func(*Func)) {
	converge(rounds, func() bool {
		s.changed = false
		for _, fn := range s.order {
			visit(fn)
		}
		return s.changed
	})
	s.reporting = true
	for _, fn := range s.order {
		visit(fn)
	}
}

// reportf records a finding during the reporting pass.
func (s *solver) reportf(pos token.Pos, format string, args ...any) {
	if s.reporting {
		s.Reportf(pos, format, args...)
	}
}
