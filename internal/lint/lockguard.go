package lint

// lockguard is the interprocedural lock-discipline and goroutine-safety
// analyzer for the host-side concurrent layers (DESIGN.md §17). PR 8's
// serving layer and PR 2's farm coordinate goroutines through mutexes
// that only the dynamic -race gates exercise, and -race only catches
// interleavings a test happens to hit. lockguard turns the locking
// contracts into build-time failures, the same way taintflow does for
// secret flows and hotpath for allocation.
//
// Annotation grammar:
//
//	//senss-lint:guardedby <mu>
//	    on a struct field marks it as protected by the sibling mutex
//	    field <mu> (sync.Mutex or sync.RWMutex; a dotted path names a
//	    nested field). The annotated field may only be read while the
//	    mutex is statically held (read or write side) and only written
//	    under the write side.
//
// Rules (each is one finding class):
//
//  1. Guarded access. Every read/write of an annotated field must occur
//     with the guard held on the same base expression: h.state needs
//     h.mu. Lock sets are tracked path-sensitively through
//     Lock/Unlock/RLock/RUnlock and defer Unlock. Helper functions that
//     touch guarded fields of their receiver or parameters without
//     locking internally (the *Locked idiom) get a requires-lock
//     summary; the requirement is checked at every call site and hoisted
//     transitively when the argument is itself a parameter, so a shard
//     lookup three calls deep is still checked where the lock decision
//     is actually made.
//  2. Unlock discipline. Every Lock() is released on all return paths
//     (explicitly or by a deferred Unlock), no path unlocks a mutex it
//     does not hold, no path acquires the same mutex twice, and an
//     explicit Unlock with a deferred Unlock already scheduled is a
//     double unlock.
//  3. Lock ordering. Acquisitions are classified by the annotated guard
//     field they resolve to (pkg.Type.field); acquiring class B while
//     holding class A — directly or through any module call, interface
//     calls resolved over the module method sets — records the edge
//     A → B in a module-wide graph. Any cycle (including a self edge:
//     two instances of one class nested) is reported as a deadlock
//     candidate. The sanctioned module graph is pinned by
//     TestModuleLockOrder against testdata/lockorder_module.json.
//  4. Goroutine and blocking hygiene. A go statement or an escaping
//     func literal that touches a guarded field runs outside the
//     caller's critical section, so its body is analyzed with an empty
//     lock set: guarded accesses there need their own locking.
//     Holding an annotated mutex across a blocking operation — channel
//     send/receive/select without default, or a call whose transitive
//     body performs one (Pool.Do submission), or a listed external such as
//     (net/http.ResponseWriter).Write — is reported: it turns a
//     private critical section into a system-wide stall point.
//
// Deliberate exceptions use the audited-waiver protocol
// (//senss-lint:ignore lockguard <reason>): constructor writes before the
// value escapes are written decisions in the tree.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerLockguard returns the lock-discipline analyzer.
func AnalyzerLockguard() *Analyzer {
	a := &Analyzer{
		Name: "lockguard",
		Doc:  "fields marked //senss-lint:guardedby are only touched under their mutex; locks are balanced, ordered, and never held across blocking calls",
	}
	a.RunModule = func(mp *ModulePass) {
		newLockWorld(mp).run()
	}
	return a
}

// LockOrderGraph builds the module's annotated-mutex acquisition graph
// without reporting diagnostics: the sorted class names (every annotated
// guard) and the sorted adjacency recorded by the lockguard walk. Tests
// pin this against a checked-in golden, so any future nesting of the
// serving/orchestration locks is a conscious, reviewed decision.
func LockOrderGraph(pkgs []*Package) (classes []string, edges map[string][]string) {
	w := newLockWorld(&ModulePass{Analyzer: AnalyzerLockguard(), index: newIndex(pkgs), report: func(Diagnostic) {}})
	w.run()
	seen := map[string]bool{}
	for _, g := range w.guards {
		if !seen[g.class] {
			seen[g.class] = true
			classes = append(classes, g.class)
		}
	}
	sort.Strings(classes)
	edges = make(map[string][]string)
	for from, tos := range w.edges {
		var out []string
		for to := range tos {
			out = append(out, to)
		}
		sort.Strings(out)
		edges[from] = out
	}
	return classes, edges
}

// lockKind distinguishes the write and read sides of an RWMutex.
type lockKind int

const (
	lockWrite lockKind = iota
	lockRead
)

func (k lockKind) String() string {
	if k == lockRead {
		return "RLock"
	}
	return "Lock"
}

// guardInfo is one //senss-lint:guardedby annotation, resolved.
type guardInfo struct {
	field *types.Var // the guarded field
	guard *types.Var // the mutex field protecting it
	name  string     // guard path as written ("mu")
	owner string     // "pkg.Type" for messages
	class string     // "pkg.Type.mu" — the lock-order node
	rw    bool       // guard is a sync.RWMutex
}

// lockReq is one requires-lock precondition in a function summary: the
// guard field must be held on the argument at the given index.
type lockReq struct {
	index int    // -1 receiver, else parameter position
	guard string // guard field path to append to the argument
	write bool   // a write-side lock is needed
	field string // "Type.field" of the guarded access, for messages
	rw    bool   // guard is an RWMutex (read side satisfies reads)
}

func (r lockReq) key() string {
	return fmt.Sprintf("%d:%s:%t", r.index, r.guard, r.write)
}

// lockWorld is the whole-module analysis state.
type lockWorld struct {
	solver

	// guards maps every annotated field to its resolved guard; guardClass
	// maps a guard (mutex) field to its lock-order class.
	guards     map[*types.Var]*guardInfo
	guardClass map[*types.Var]string

	// Summaries, computed to fixpoint before the reporting pass.
	requires map[*types.Func]map[string]lockReq
	blocking map[*types.Func]bool
	acquires map[*types.Func]map[string]bool // transitive annotated classes

	// edges is the annotated lock-order graph: class -> class -> first
	// position that recorded the edge.
	edges map[string]map[string]token.Pos

	varIDs map[types.Object]int
}

func newLockWorld(mp *ModulePass) *lockWorld {
	return &lockWorld{
		solver:     solver{ModulePass: mp},
		guards:     make(map[*types.Var]*guardInfo),
		guardClass: make(map[*types.Var]string),
		requires:   make(map[*types.Func]map[string]lockReq),
		blocking:   make(map[*types.Func]bool),
		acquires:   make(map[*types.Func]map[string]bool),
		edges:      make(map[string]map[string]token.Pos),
		varIDs:     make(map[types.Object]int),
	}
}

// lockRounds bounds the requirement fixpoint: each round can only add
// (function, param, guard) triples, and call chains that hoist a
// requirement are shallow.
const lockRounds = 10

func (w *lockWorld) run() {
	w.collectGuards()
	w.computeSummaries()
	// The walk records requires-lock summaries for guarded accesses (and
	// unsatisfiable callee requirements) rooted at parameters.
	w.solve(lockRounds, w.analyze)
	w.reportCycles()
}

// guardedbyDirective extracts the mutex path from a field's comments.
func guardedbyDirective(groups ...*ast.CommentGroup) (string, token.Pos, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := commentText(c)
			rest, ok := strings.CutPrefix(text, "senss-lint:guardedby")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return "", c.Pos(), true // malformed: reported by suppress.go
			}
			return fields[0], c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// collectGuards scans every struct declaration for guardedby annotations
// and resolves each to its sibling mutex field.
func (w *lockWorld) collectGuards() {
	for _, pkg := range w.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					w.collectStructGuards(pkg, ts, st)
				}
			}
		}
	}
}

func (w *lockWorld) collectStructGuards(pkg *Package, ts *ast.TypeSpec, st *ast.StructType) {
	owner := pkg.Types.Name() + "." + ts.Name.Name
	for _, field := range st.Fields.List {
		guardName, pos, found := guardedbyDirective(field.Doc, field.Comment)
		if !found {
			continue
		}
		if guardName == "" {
			continue // bare directive: suppress.go reports it
		}
		guard, rw, ok := resolveGuard(pkg.Info.Defs[ts.Name].Type(), guardName)
		if !ok {
			w.Reportf(pos, "guardedby %q names no sync.Mutex or sync.RWMutex field in %s", guardName, owner)
			continue
		}
		class := owner + "." + guardName
		w.guardClass[guard] = class
		for _, name := range field.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				w.guards[v] = &guardInfo{
					field: v,
					guard: guard,
					name:  guardName,
					owner: owner,
					class: class,
					rw:    rw,
				}
			}
		}
	}
}

// resolveGuard walks the (possibly dotted) mutex field path from the
// struct type t and reports whether it ends at an RWMutex. Field objects
// are the ones use sites resolve to.
func resolveGuard(t types.Type, path string) (*types.Var, bool, bool) {
	var v *types.Var
	for _, seg := range strings.Split(path, ".") {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return nil, false, false
		}
		v = nil
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == seg {
				v = st.Field(i)
				break
			}
		}
		if v == nil {
			return nil, false, false
		}
		t = v.Type()
	}
	rw, ok := isMutexType(t)
	return v, rw, ok
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer), and whether it is the RW variant.
func isMutexType(t types.Type) (rw, ok bool) {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false, false
	}
	switch n.Obj().Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// varID assigns a stable per-run identifier to a variable object, so
// lock-set keys survive shadowing and renaming.
func (w *lockWorld) varID(obj types.Object) int {
	if id, ok := w.varIDs[obj]; ok {
		return id
	}
	id := len(w.varIDs) + 1
	w.varIDs[obj] = id
	return id
}

// canonExpr canonicalizes a base expression to a lock-set key. disp is
// the human-readable form, root the variable the path is rooted at, and
// simple reports a bare identifier (the hoistable case).
func (w *lockWorld) canonExpr(info *types.Info, e ast.Expr) (key, disp string, root *types.Var, simple, ok bool) {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[t]
		if obj == nil {
			obj = info.Defs[t]
		}
		v, isVar := obj.(*types.Var)
		if !isVar {
			return "", "", nil, false, false
		}
		return fmt.Sprintf("v%d", w.varID(v)), t.Name, v, true, true
	case *ast.SelectorExpr:
		// pkg.Var selectors root at the package-level variable.
		if id, isIdent := t.X.(*ast.Ident); isIdent {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, isVar := info.Uses[t.Sel].(*types.Var); isVar {
					return fmt.Sprintf("v%d", w.varID(v)), id.Name + "." + t.Sel.Name, v, false, true
				}
				return "", "", nil, false, false
			}
		}
		k, d, r, _, okx := w.canonExpr(info, t.X)
		if !okx {
			return "", "", nil, false, false
		}
		return k + "." + t.Sel.Name, d + "." + t.Sel.Name, r, false, true
	case *ast.IndexExpr:
		k, d, r, _, okx := w.canonExpr(info, t.X)
		if !okx {
			return "", "", nil, false, false
		}
		switch idx := ast.Unparen(t.Index).(type) {
		case *ast.Ident:
			if v, isVar := info.Uses[idx].(*types.Var); isVar {
				return fmt.Sprintf("%s[v%d]", k, w.varID(v)), d + "[" + idx.Name + "]", r, false, true
			}
			return "", "", nil, false, false
		case *ast.BasicLit:
			return k + "[" + idx.Value + "]", d + "[" + idx.Value + "]", r, false, true
		}
		return "", "", nil, false, false
	case *ast.StarExpr:
		return w.canonExpr(info, t.X)
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			return w.canonExpr(info, t.X)
		}
	}
	return "", "", nil, false, false
}

// mutexOp classifies a call as a mutex operation on a canonicalizable
// receiver: x.mu.Lock() and friends.
type mutexOp struct {
	method string // Lock, Unlock, RLock, RUnlock
	key    string
	disp   string
	class  string // annotated lock-order class ("" for unannotated)
	rw     bool
}

func (w *lockWorld) asMutexOp(info *types.Info, call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return mutexOp{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return mutexOp{}, false
	}
	rw, isMutex := isMutexType(sig.Recv().Type())
	if !isMutex {
		return mutexOp{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return mutexOp{}, false // TryLock and friends are not modeled
	}
	key, disp, _, _, okc := w.canonExpr(info, sel.X)
	if !okc {
		return mutexOp{}, false
	}
	op := mutexOp{method: fn.Name(), key: key, disp: disp, rw: rw}
	// Class: the final field of the receiver path, when it is an
	// annotated guard.
	if recvSel, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr); isSel {
		if v, isVar := info.Uses[recvSel.Sel].(*types.Var); isVar {
			if class, annotated := w.guardClass[v]; annotated {
				op.class = class
			}
		}
	}
	return op, true
}

// requireKeyOf renders the lock requirement key for a guarded access:
// canonical base + "." + guard path.
func requireKeyOf(baseKey, guard string) string { return baseKey + "." + guard }

// addRequire grows fn's requires-lock summary.
func (w *lockWorld) addRequire(fn *types.Func, req lockReq) {
	m := w.requires[fn]
	if m == nil {
		m = make(map[string]lockReq)
		w.requires[fn] = m
	}
	if _, ok := m[req.key()]; !ok {
		m[req.key()] = req
		w.changed = true
	}
}

// addEdge records a lock-order edge between annotated classes.
func (w *lockWorld) addEdge(from, to string, pos token.Pos) {
	if from == "" || to == "" {
		return
	}
	m := w.edges[from]
	if m == nil {
		m = make(map[string]token.Pos)
		w.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = pos
	}
}

// reportCycles reports each cycle of the annotated lock-order graph
// once: a strongly connected component (classes that reach each other,
// or one class with a self edge), anchored at its earliest recorded edge.
func (w *lockWorld) reportCycles() {
	reaches := make(map[string]map[string]bool)
	var classes []string
	for from := range w.edges {
		seen := make(map[string]bool)
		stack := []string{from}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for to := range w.edges[v] {
				if !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
			}
		}
		reaches[from] = seen
		classes = append(classes, from)
	}
	sort.Strings(classes)
	reported := make(map[string]bool)
	for _, v := range classes {
		if reported[v] || !reaches[v][v] {
			continue
		}
		// Every class on a cycle has an outgoing edge, so classes lists
		// the whole component, in sorted order.
		inSCC := func(u string) bool { return reaches[v][u] && reaches[u][v] }
		var scc []string
		for _, u := range classes {
			if inSCC(u) {
				scc = append(scc, u)
				reported[u] = true
			}
		}
		pos := token.NoPos
		for _, from := range scc {
			for to, p := range w.edges[from] {
				if inSCC(to) && (pos == token.NoPos || p < pos) {
					pos = p
				}
			}
		}
		cycle := strings.Join(append(append([]string{}, scc...), scc[0]), " -> ")
		w.reportf(pos, "lock-order cycle (deadlock candidate): %s", cycle)
	}
}
