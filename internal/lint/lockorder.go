package lint

// lockorder holds lockguard's engine: the per-function blocking and
// acquisition summaries, their propagation to a module fixpoint, and the
// path-sensitive lock-set analysis over each body's CFG that checks
// guarded accesses, unlock discipline, ordering edges, and blocking
// hygiene (DESIGN.md §17).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// blockingExternalFuncs are external calls lockguard treats as blocking:
// holding an annotated mutex across any of them couples the critical
// section to scheduler or peer progress. Keyed by types.Func.FullName.
var blockingExternalFuncs = map[string]bool{
	"time.Sleep":                      true,
	"(*sync.WaitGroup).Wait":          true,
	"(*sync.Cond).Wait":               true,
	"net/http.Error":                  true,
	"(net/http.ResponseWriter).Write": true,
	"(net/http.Flusher).Flush":        true,
}

// computeSummaries records, for every module function, whether its own
// statements (excluding go statements and func-literal bodies, which the
// walk models at their use sites) can block, and which annotated lock
// classes they acquire; both propagate transitively over the module call
// graph, with interface calls resolved to every module implementation.
func (w *lockWorld) computeSummaries() {
	callees := make(map[*types.Func]map[*types.Func]bool)
	for _, fn := range w.order {
		info := fn.Pkg.Info
		acq := make(map[string]bool)
		cl := make(map[*types.Func]bool)
		blocking := false
		scan := func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.FuncLit:
				// A literal's body blocks only when invoked, which the
				// walk models in place.
				return false
			case *ast.SendStmt:
				blocking = true
			case *ast.UnaryExpr:
				if t.Op == token.ARROW {
					blocking = true
				}
			case *ast.CallExpr:
				if op, ok := w.asMutexOp(info, t); ok {
					if (op.method == "Lock" || op.method == "RLock") && op.class != "" {
						acq[op.class] = true
					}
					return true
				}
				callee := staticCallee(info, t)
				if callee == nil {
					return true
				}
				if blockingExternalFuncs[callee.FullName()] {
					blocking = true
				}
				for _, c := range w.targets(callee) {
					cl[c] = true
				}
			}
			return true
		}
		for _, b := range w.cfg(fn.Decl.Body, info).Blocks {
			for _, n := range b.Nodes {
				switch t := n.(type) {
				case *ast.GoStmt, *ast.ForStmt:
					// A goroutine's blocking does not block its creator; a
					// for loop's parts are nodes of their own.
					continue
				case *ast.SelectStmt:
					blocking = blocking || selectWaits(t)
					continue
				case *ast.RangeStmt:
					if typ := info.TypeOf(t.X); typ != nil {
						_, isCh := typ.Underlying().(*types.Chan)
						blocking = blocking || isCh
					}
					n = t.X
				}
				// A comm clause's channel op is governed by its select.
				if n != b.Comm {
					ast.Inspect(n, scan)
				}
			}
		}
		w.blocking[fn.Obj] = blocking
		w.acquires[fn.Obj] = acq
		callees[fn.Obj] = cl
	}
	// Each round carries every fact at least one call edge further, and
	// no call path is longer than the function count.
	converge(len(w.order)+1, func() bool {
		changed := false
		for _, fn := range w.order {
			for c := range callees[fn.Obj] {
				if w.blocking[c] && !w.blocking[fn.Obj] {
					w.blocking[fn.Obj] = true
					changed = true
				}
				for class := range w.acquires[c] {
					if !w.acquires[fn.Obj][class] {
						w.acquires[fn.Obj][class] = true
						changed = true
					}
				}
			}
		}
		return changed
	})
}

// heldLock is one mutex held on a path.
type heldLock struct {
	key   string // canonical receiver path
	disp  string // source form for messages ("h.mu")
	class string // annotated lock-order class ("" unannotated)
	kind  lockKind
	pos   token.Pos // acquisition site
}

// defUnlock is one scheduled deferred release.
type defUnlock struct {
	key  string
	kind lockKind
}

// lockState is the lock set along one abstract path.
type lockState struct {
	held     []heldLock
	deferred []defUnlock
}

func (s *lockState) holds(key string) *heldLock {
	for i := range s.held {
		if s.held[i].key == key {
			return &s.held[i]
		}
	}
	return nil
}

func (s *lockState) hasDeferred(key string) bool {
	for _, d := range s.deferred {
		if d.key == key {
			return true
		}
	}
	return false
}

// deferRelease schedules a deferred release; scheduling the same one
// again (a defer in a loop) adds nothing the exit check could tell apart.
func (s *lockState) deferRelease(d defUnlock) {
	for _, have := range s.deferred {
		if have == d {
			return
		}
	}
	s.deferred = append(s.deferred, d)
}

func (s *lockState) clone() *lockState {
	c := &lockState{}
	c.held = append(c.held, s.held...)
	c.deferred = append(c.deferred, s.deferred...)
	return c
}

func (s *lockState) sig() string {
	var parts []string
	for _, h := range s.held {
		parts = append(parts, "h:"+h.key+":"+h.kind.String())
	}
	for _, d := range s.deferred {
		parts = append(parts, "d:"+d.key+":"+d.kind.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// maxLockStates bounds the per-point path explosion; beyond it the join
// keeps the first distinct states (the module's functions stay far
// below this).
const maxLockStates = 12

func cloneStates(states []*lockState) []*lockState {
	out := make([]*lockState, 0, len(states))
	for _, s := range states {
		out = append(out, s.clone())
	}
	return out
}

// unionStates is lockguard's join: the distinct states of a then b,
// capped at maxLockStates. It clones, never aliases, so a transfer may
// mutate what it is handed.
func unionStates(a, b []*lockState) []*lockState {
	var out []*lockState
	seen := make(map[string]bool)
	for _, s := range append(a[:len(a):len(a)], b...) {
		sig := s.sig()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, s.clone())
		if len(out) == maxLockStates {
			break
		}
	}
	return out
}

// sameStates reports whether a and b hold the same distinct states.
func sameStates(a, b []*lockState) bool {
	if len(a) != len(b) {
		return false
	}
	sigs := make(map[string]bool, len(a))
	for _, s := range a {
		sigs[s.sig()] = true
	}
	for _, s := range b {
		if !sigs[s.sig()] {
			return false
		}
	}
	return true
}

// lockWalker runs the lock-set analysis over one function (or one
// func-literal body, in capture or inherit mode).
type lockWalker struct {
	w    *lockWorld
	fn   *Func // enclosing declared function (requirement hoist root)
	info *types.Info
	// states is the live set of abstract lock states at the node being
	// transferred.
	states []*lockState
	// baseline keys were held when this walker started: literal bodies
	// inherit them and must not be blamed for releasing at their returns.
	baseline map[string]bool
	// capture names the escape context ("a go statement", "an escaping
	// func literal") — guarded accesses there cannot rely on the
	// creator's locks and requirement hoisting is disabled.
	capture string
	// noBlock suppresses blocking checks for the channel op of a select
	// comm clause (the select itself is judged instead).
	noBlock bool
	// emit is set on the one pass over the fixed-point in-states: only
	// that pass reports, records requirements and lock-order edges, and
	// analyzes func-literal bodies.
	emit bool
}

// analyze runs the analysis over fn's body.
func (w *lockWorld) analyze(fn *Func) {
	lw := &lockWalker{w: w, fn: fn, info: fn.Pkg.Info}
	lw.body(fn.Decl.Body, []*lockState{{}})
}

// sub analyzes a func-literal body entered with the given states.
func (lw *lockWalker) sub(body *ast.BlockStmt, entry []*lockState, capture string) {
	(&lockWalker{w: lw.w, fn: lw.fn, info: lw.info, capture: capture}).body(body, entry)
}

// body solves the lock sets of a body's CFG from entry, then replays
// each reachable block from its fixed-point in-state with emit on, and
// release-checks the states that fall off the end at the closing brace.
func (lw *lockWalker) body(body *ast.BlockStmt, entry []*lockState) {
	lw.baseline = make(map[string]bool)
	for _, s := range entry {
		for _, h := range s.held {
			lw.baseline[h.key] = true
		}
	}
	g := lw.w.cfg(body, lw.info)
	in, reached := solve(g, entry, func(b *Block, s []*lockState) []*lockState {
		return lw.block(b, s, false)
	}, unionStates, sameStates)
	for _, b := range g.Blocks {
		if !reached[b.Index] {
			continue
		}
		lw.block(b, in[b.Index], true)
		if b == g.End {
			lw.releaseCheck(body.Rbrace)
		}
	}
}

// block transfers b's nodes from a copy of in and returns the out-state.
func (lw *lockWalker) block(b *Block, in []*lockState, emit bool) []*lockState {
	lw.states, lw.emit = cloneStates(in), emit
	for _, n := range b.Nodes {
		lw.noBlock = n == b.Comm
		lw.node(n)
	}
	lw.noBlock = false
	return lw.states
}

// reportf records a finding on the emitting pass.
func (lw *lockWalker) reportf(pos token.Pos, format string, args ...any) {
	if lw.emit {
		lw.w.reportf(pos, format, args...)
	}
}

// require grows fn's requires-lock summary on the emitting pass.
func (lw *lockWalker) require(req lockReq) {
	if lw.emit {
		lw.w.addRequire(lw.fn.Obj, req)
	}
}

// edge records a lock-order edge on the emitting pass.
func (lw *lockWalker) edge(from, to string, pos token.Pos) {
	if lw.emit {
		lw.w.addEdge(from, to, pos)
	}
}

// releaseCheck reports held, non-deferred, non-baseline locks at a
// function exit point.
func (lw *lockWalker) releaseCheck(pos token.Pos) {
	for _, s := range lw.states {
		for _, h := range s.held {
			if lw.baseline[h.key] || s.hasDeferred(h.key) {
				continue
			}
			// The acquisition is in the finding's own file, so its base
			// name keeps the message the same on every checkout.
			at := lw.w.Fset.Position(h.pos)
			lw.reportf(pos, "%s is locked but not released on this return path (%s at %s:%d:%d)",
				h.disp, h.kind, filepath.Base(at.Filename), at.Line, at.Column)
		}
	}
}

// node is lockguard's transfer for one CFG node.
func (lw *lockWalker) node(n ast.Node) {
	switch t := n.(type) {
	case ast.Expr:
		lw.walkExpr(t)
	case *ast.ExprStmt:
		lw.walkExpr(t.X)
	case *ast.AssignStmt:
		for _, r := range t.Rhs {
			lw.walkExpr(r)
		}
		if t.Tok != token.DEFINE {
			for _, l := range t.Lhs {
				lw.walkLHS(l)
			}
		}
	case *ast.IncDecStmt:
		lw.walkLHS(t.X)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lw.walkExpr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		lw.walkExpr(t.Chan)
		lw.walkExpr(t.Value)
		lw.checkBlocking(t.Pos(), "a blocking channel send")
	case *ast.DeferStmt:
		lw.walkDefer(t)
	case *ast.GoStmt:
		lw.walkGo(t)
	case *ast.ReturnStmt:
		for _, r := range t.Results {
			lw.walkExpr(r)
		}
		lw.releaseCheck(t.Pos())
	case *ast.RangeStmt:
		lw.walkExpr(t.X)
		if typ := lw.info.TypeOf(t.X); typ != nil {
			if _, isCh := typ.Underlying().(*types.Chan); isCh {
				lw.checkBlocking(t.Pos(), "a range over a channel")
			}
		}
	case *ast.SelectStmt:
		if selectWaits(t) {
			lw.checkBlocking(t.Pos(), "a blocking select")
		}
	}
}

// selectWaits reports whether a select has no default clause.
func selectWaits(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return false
		}
	}
	return true
}

// walkDefer handles defer statements: mutex unlocks register as
// scheduled releases; literal bodies are analyzed (state changes
// discarded) so guarded accesses inside cleanup closures are still
// checked, then scanned for direct unlocks. The analysis comes first:
// the closure's own Unlock is the deferred release, not a second one.
func (lw *lockWalker) walkDefer(t *ast.DeferStmt) {
	var calls []*ast.CallExpr // the calls whose releases the defer schedules
	if lit, ok := ast.Unparen(t.Call.Fun).(*ast.FuncLit); ok {
		if lw.emit {
			lw.sub(lit.Body, lw.states, lw.capture)
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, isCall := n.(*ast.CallExpr); isCall {
				calls = append(calls, call)
			}
			_, isLit := n.(*ast.FuncLit)
			return !isLit
		})
	} else if _, ok := lw.w.asMutexOp(lw.info, t.Call); ok {
		calls = append(calls, t.Call)
	} else {
		// Deferred plain call: arguments are evaluated now; the call
		// itself runs at exit under unknowable lock state, so only the
		// operands are checked.
		if fun, ok := ast.Unparen(t.Call.Fun).(*ast.SelectorExpr); ok {
			lw.walkExpr(fun.X)
		}
		for _, a := range t.Call.Args {
			lw.walkExpr(a)
		}
	}
	for _, call := range calls {
		op, ok := lw.w.asMutexOp(lw.info, call)
		if !ok || op.method != "Unlock" && op.method != "RUnlock" {
			continue
		}
		d := defUnlock{key: op.key, kind: lockWrite}
		if op.method == "RUnlock" {
			d.kind = lockRead
		}
		for _, s := range lw.states {
			s.deferRelease(d)
		}
	}
}

// walkGo handles go statements: literal bodies run with an empty lock
// set in capture context; named callees with lock requirements cannot
// have them satisfied across the goroutine boundary.
func (lw *lockWalker) walkGo(t *ast.GoStmt) {
	if lit, ok := ast.Unparen(t.Call.Fun).(*ast.FuncLit); ok {
		for _, a := range t.Call.Args {
			lw.walkExpr(a)
		}
		if lw.emit {
			lw.sub(lit.Body, []*lockState{{}}, "a go statement")
		}
		return
	}
	if fun, ok := ast.Unparen(t.Call.Fun).(*ast.SelectorExpr); ok {
		lw.walkExpr(fun.X)
	}
	for _, a := range t.Call.Args {
		lw.walkExpr(a)
	}
	if callee := staticCallee(lw.info, t.Call); callee != nil {
		reqs := sortedRequires(lw.w.requires[callee])
		for _, req := range reqs {
			arg := lw.requireArg(t.Call, req)
			if arg == nil {
				continue
			}
			_, disp, _, _, ok := lw.w.canonExpr(lw.info, arg)
			if !ok {
				continue
			}
			lw.reportf(t.Pos(), "call to %s in a go statement requires %s.%s to be held (it guards %s), which cannot cross a goroutine boundary",
				funcDisplay(callee), disp, req.guard, req.field)
		}
	}
}

// walkLHS checks a write target; guarded fields need the write lock.
func (lw *lockWalker) walkLHS(e ast.Expr) {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
	case *ast.SelectorExpr:
		if g := lw.guardOf(t); g != nil {
			lw.checkGuarded(t, g, true)
			return
		}
		lw.walkExpr(t.X)
	case *ast.IndexExpr:
		// Writing an element of a guarded map/slice mutates the guarded
		// field: m.byTenant[k] = v needs the write lock on m.mu.
		if sel, ok := ast.Unparen(t.X).(*ast.SelectorExpr); ok {
			if g := lw.guardOf(sel); g != nil {
				lw.checkGuarded(sel, g, true)
				lw.walkExpr(t.Index)
				return
			}
		}
		lw.walkExpr(t.X)
		lw.walkExpr(t.Index)
	case *ast.StarExpr:
		lw.walkExpr(t.X)
	default:
		lw.walkExpr(e)
	}
}

// guardOf resolves a selector to its guardedby annotation, if any.
func (lw *lockWalker) guardOf(sel *ast.SelectorExpr) *guardInfo {
	v, ok := lw.info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return nil
	}
	return lw.w.guards[v]
}

func (lw *lockWalker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	switch t := e.(type) {
	case *ast.ParenExpr:
		lw.walkExpr(t.X)
	case *ast.Ident, *ast.BasicLit:
	case *ast.SelectorExpr:
		if g := lw.guardOf(t); g != nil {
			lw.checkGuarded(t, g, false)
		}
		lw.walkExpr(t.X)
	case *ast.CallExpr:
		lw.handleCall(t)
	case *ast.UnaryExpr:
		if t.Op == token.ARROW {
			lw.walkExpr(t.X)
			lw.checkBlocking(t.Pos(), "a blocking channel receive")
			return
		}
		if t.Op == token.AND {
			// Taking the address of a guarded field lets it escape the
			// critical section; require the write lock at the site.
			if sel, ok := ast.Unparen(t.X).(*ast.SelectorExpr); ok {
				if g := lw.guardOf(sel); g != nil {
					lw.checkGuarded(sel, g, true)
					return
				}
			}
		}
		lw.walkExpr(t.X)
	case *ast.BinaryExpr:
		lw.walkExpr(t.X)
		lw.walkExpr(t.Y)
	case *ast.IndexExpr:
		lw.walkExpr(t.X)
		lw.walkExpr(t.Index)
	case *ast.SliceExpr:
		lw.walkExpr(t.X)
		lw.walkExpr(t.Low)
		lw.walkExpr(t.High)
		lw.walkExpr(t.Max)
	case *ast.StarExpr:
		lw.walkExpr(t.X)
	case *ast.TypeAssertExpr:
		lw.walkExpr(t.X)
	case *ast.CompositeLit:
		for _, el := range t.Elts {
			lw.walkExpr(el)
		}
	case *ast.KeyValueExpr:
		lw.walkExpr(t.Key)
		lw.walkExpr(t.Value)
	case *ast.FuncLit:
		// A literal reaching here is stored, returned, or otherwise
		// escapes: its body runs outside this critical section.
		if lw.emit {
			lw.sub(t.Body, []*lockState{{}}, "an escaping func literal")
		}
	}
}

// checkGuarded enforces rule 1 at one guarded-field access.
func (lw *lockWalker) checkGuarded(sel *ast.SelectorExpr, g *guardInfo, write bool) {
	lw.walkExpr(sel.X)
	key, disp, root, simple, ok := lw.w.canonExpr(lw.info, sel.X)
	if !ok {
		return
	}
	fieldDisp := disp + "." + sel.Sel.Name
	lockDisp := disp + "." + g.name
	heldAll, heldAny, readOnly := lw.held(key + "." + g.name)
	verb, noun := "read", "read"
	if write {
		verb, noun = "written", "write"
	}
	if lw.capture != "" {
		if !heldAll {
			lw.reportf(sel.Sel.Pos(), "%s is guarded by %q but captured in %s without %s held",
				fieldDisp, g.name, lw.capture, lockDisp)
		}
		return
	}
	if heldAll {
		if write && readOnly {
			lw.reportf(sel.Sel.Pos(), "%s is guarded by %q but written with only RLock held (Lock required)",
				fieldDisp, g.name)
		}
		return
	}
	if !heldAny && simple && lw.callerIndex(root) != -2 {
		lw.require(lockReq{
			index: lw.callerIndex(root),
			guard: g.name,
			write: write,
			field: g.owner + "." + sel.Sel.Name,
			rw:    g.rw,
		})
		return
	}
	if heldAny {
		lw.reportf(sel.Sel.Pos(), "%s is guarded by %q but not locked on every path to this %s (%s may be unlocked here)",
			fieldDisp, g.name, noun, lockDisp)
		return
	}
	lw.reportf(sel.Sel.Pos(), "%s is guarded by %q but %s without %s held",
		fieldDisp, g.name, verb, lockDisp)
}

// held reports whether every state, and whether any, holds key, and
// whether some holding state has only the read side.
func (lw *lockWalker) held(key string) (all, any, readOnly bool) {
	all = true
	for _, s := range lw.states {
		h := s.holds(key)
		if h == nil {
			all = false
			continue
		}
		any = true
		readOnly = readOnly || h.kind != lockWrite
	}
	return all, any, readOnly
}

// callerIndex maps a variable to this function's requirement index:
// -1 for the receiver, the parameter position otherwise, -2 for
// variables that are neither (no hoist possible).
func (lw *lockWalker) callerIndex(v *types.Var) int {
	if v == nil {
		return -2
	}
	if lw.fn.Recv != nil && v == lw.fn.Recv {
		return -1
	}
	for i, p := range lw.fn.Params {
		if v == p {
			return i
		}
	}
	return -2
}

// checkBlocking enforces rule 4 at one blocking point: no annotated
// mutex may be held across it.
func (lw *lockWalker) checkBlocking(pos token.Pos, what string) {
	if lw.noBlock {
		return
	}
	for _, s := range lw.states {
		for _, h := range s.held {
			if h.class == "" {
				continue
			}
			lw.reportf(pos, "%s is held across %s", h.disp, what)
		}
	}
}

// sortedRequires orders a requirement set deterministically.
func sortedRequires(m map[string]lockReq) []lockReq {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]lockReq, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// requireArg maps a requirement index to the call operand it names.
func (lw *lockWalker) requireArg(call *ast.CallExpr, req lockReq) ast.Expr {
	if req.index == -1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if req.index >= 0 && req.index < len(call.Args) {
		return call.Args[req.index]
	}
	return nil
}

func (lw *lockWalker) handleCall(call *ast.CallExpr) {
	if op, ok := lw.w.asMutexOp(lw.info, call); ok {
		lw.applyMutexOp(op, call.Pos())
		return
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		lw.walkExpr(fun.X)
	}
	for _, a := range call.Args {
		if lit, isLit := ast.Unparen(a).(*ast.FuncLit); isLit {
			// A literal passed to a call is treated as a synchronous
			// callback: it inherits the current lock set (state changes
			// discarded). Goroutine hand-offs are modeled at go
			// statements and stored literals.
			if lw.emit {
				lw.sub(lit.Body, lw.states, lw.capture)
			}
			continue
		}
		lw.walkExpr(a)
	}
	callee := staticCallee(lw.info, call)
	if callee == nil {
		return
	}
	if _, inMod := lw.w.funcs[callee]; inMod {
		lw.checkRequirements(call, callee)
	}
	blocking := blockingExternalFuncs[callee.FullName()]
	acquired := make(map[string]bool)
	for _, impl := range lw.w.targets(callee) {
		if lw.w.blocking[impl] {
			blocking = true
		}
		for c := range lw.w.acquires[impl] {
			acquired[c] = true
		}
	}
	if blocking {
		lw.checkBlocking(call.Pos(), fmt.Sprintf("a call to %s, which blocks", funcDisplay(callee)))
	}
	if len(acquired) > 0 {
		var classes []string
		for c := range acquired {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, s := range lw.states {
			for _, h := range s.held {
				if h.class == "" {
					continue
				}
				for _, c := range classes {
					lw.edge(h.class, c, call.Pos())
				}
			}
		}
	}
}

// checkRequirements enforces a module callee's requires-lock summary at
// this call site, hoisting to the caller's own summary when the operand
// is itself a caller parameter.
func (lw *lockWalker) checkRequirements(call *ast.CallExpr, callee *types.Func) {
	reqs := sortedRequires(lw.w.requires[callee])
	for _, req := range reqs {
		arg := lw.requireArg(call, req)
		if arg == nil {
			continue
		}
		key, disp, root, simple, ok := lw.w.canonExpr(lw.info, arg)
		if !ok {
			continue
		}
		heldAll, heldAny, readOnly := lw.held(key + "." + req.guard)
		if heldAll && (!req.write || !readOnly) {
			continue
		}
		if heldAll && req.write && readOnly {
			lw.reportf(call.Pos(), "call to %s requires the write lock on %s.%s (it writes %s), but only RLock is held",
				funcDisplay(callee), disp, req.guard, req.field)
			continue
		}
		if !heldAny && simple && lw.capture == "" && lw.callerIndex(root) != -2 {
			lw.require(lockReq{
				index: lw.callerIndex(root),
				guard: req.guard,
				write: req.write,
				field: req.field,
				rw:    req.rw,
			})
			continue
		}
		lw.reportf(call.Pos(), "call to %s requires %s.%s to be held (it guards %s)",
			funcDisplay(callee), disp, req.guard, req.field)
	}
}

// applyMutexOp enforces rule 2 (unlock discipline) at one mutex call and
// records direct lock-order edges (rule 3).
func (lw *lockWalker) applyMutexOp(op mutexOp, pos token.Pos) {
	switch op.method {
	case "Lock", "RLock":
		kind := lockWrite
		if op.method == "RLock" {
			kind = lockRead
		}
		for _, s := range lw.states {
			if s.holds(op.key) != nil {
				lw.reportf(pos, "second %s of %s on this path would deadlock", op.method, op.disp)
				continue
			}
			if op.class != "" {
				for _, h := range s.held {
					if h.class != "" {
						lw.edge(h.class, op.class, pos)
					}
				}
			}
			s.held = append(s.held, heldLock{key: op.key, disp: op.disp, class: op.class, kind: kind, pos: pos})
		}
	case "Unlock", "RUnlock":
		need := lockWrite
		if op.method == "RUnlock" {
			need = lockRead
		}
		for _, s := range lw.states {
			h := s.holds(op.key)
			if h == nil {
				lw.reportf(pos, "%s of %s but it is not locked on this path", op.method, op.disp)
				continue
			}
			if h.kind != need {
				if need == lockWrite {
					lw.reportf(pos, "Unlock of %s but only RLock is held (RUnlock required)", op.disp)
				} else {
					lw.reportf(pos, "RUnlock of %s but Lock is held (Unlock required)", op.disp)
				}
			}
			if s.hasDeferred(op.key) {
				lw.reportf(pos, "%s of %s but a deferred release is already scheduled (double unlock)", op.method, op.disp)
			}
			for i := range s.held {
				if s.held[i].key == op.key {
					s.held = append(s.held[:i], s.held[i+1:]...)
					break
				}
			}
		}
	}
}
