package lint

// lockorder holds lockguard's engine: the per-function blocking and
// acquisition summaries, their propagation to a module fixpoint, and the
// path-sensitive lock-set walk that checks guarded accesses, unlock
// discipline, ordering edges, and blocking hygiene (DESIGN.md §17).

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

// terminatingFuncs end the goroutine: paths through them need no
// release check. Keyed by types.Func.FullName.
var terminatingFuncs = map[string]bool{
	"os.Exit":     true,
	"log.Fatal":   true,
	"log.Fatalf":  true,
	"log.Fatalln": true,
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
		var scan func(n ast.Node) bool
		scan = func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.GoStmt, *ast.FuncLit:
				// A goroutine's blocking does not block its creator; a
				// literal's body blocks only when invoked, which the walk
				// models in place.
				return false
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range t.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					blocking = true
				}
				// Comm clauses' channel ops are governed by the select;
				// only their bodies are scanned independently.
				for _, c := range t.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							ast.Inspect(s, scan)
						}
					}
				}
				return false
			case *ast.SendStmt:
				blocking = true
			case *ast.UnaryExpr:
				if t.Op == token.ARROW {
					blocking = true
				}
			case *ast.RangeStmt:
				if typ := info.TypeOf(t.X); typ != nil {
					if _, isCh := typ.Underlying().(*types.Chan); isCh {
						blocking = true
					}
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
		ast.Inspect(fn.Decl.Body, scan)
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

// maxLockStates bounds the per-point path explosion; beyond it the walk
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

func unionStates(groups ...[]*lockState) []*lockState {
	var out []*lockState
	seen := make(map[string]bool)
	for _, g := range groups {
		for _, s := range g {
			sig := s.sig()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			// Clone, never alias: the walk mutates states in place, and a
			// kept pointer shared with a saved snapshot (a loop's entry
			// states, a branch join) would smear later mutations into it.
			out = append(out, s.clone())
			if len(out) == maxLockStates {
				return out
			}
		}
	}
	return out
}

// breakFrame collects the states flowing out of break/continue for the
// innermost breakable construct.
type breakFrame struct {
	isLoop    bool
	breaks    []*lockState
	continues []*lockState
}

// lockWalker runs the path-sensitive walk over one function (or one
// func-literal body, in capture or inherit mode).
type lockWalker struct {
	w    *lockWorld
	fn   *Func // enclosing declared function (requirement hoist root)
	pkg  *Package
	info *types.Info
	// states is the live set of abstract lock states; nil means the
	// current point is unreachable (all paths returned or died).
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
	frames  []*breakFrame
}

// analyze runs the walk over fn's body.
func (w *lockWorld) analyze(fn *Func) {
	lw := &lockWalker{
		w:        w,
		fn:       fn,
		pkg:      fn.Pkg,
		info:     fn.Pkg.Info,
		states:   []*lockState{{}},
		baseline: make(map[string]bool),
	}
	lw.walkBody(fn.Decl.Body, fn.Decl.Body.Rbrace)
}

// subWalker builds a walker for a func-literal body.
func (lw *lockWalker) subWalker(states []*lockState, capture string) *lockWalker {
	base := make(map[string]bool)
	for _, s := range states {
		for _, h := range s.held {
			base[h.key] = true
		}
	}
	return &lockWalker{
		w: lw.w, fn: lw.fn, pkg: lw.pkg, info: lw.info,
		states: states, baseline: base, capture: capture,
	}
}

// walkBody walks a function body and release-checks live fall-through
// states at endPos (the implicit return of void functions).
func (lw *lockWalker) walkBody(body *ast.BlockStmt, endPos token.Pos) {
	lw.walkStmt(body)
	lw.releaseCheck(endPos)
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
			lw.w.reportf(pos, "%s is locked but not released on this return path (%s at %s:%d:%d)",
				h.disp, h.kind, filepath.Base(at.Filename), at.Line, at.Column)
		}
	}
}

func (lw *lockWalker) walkStmt(stmt ast.Stmt) {
	if stmt == nil || lw.states == nil {
		return
	}
	switch t := stmt.(type) {
	case *ast.BlockStmt:
		for _, s := range t.List {
			lw.walkStmt(s)
		}
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
		lw.states = nil
	case *ast.IfStmt:
		lw.walkStmt(t.Init)
		lw.walkExpr(t.Cond)
		entry := lw.states
		thenOut := lw.withStates(cloneStates(entry), func() { lw.walkStmt(t.Body) })
		elseStates := cloneStates(entry)
		elseOut := elseStates
		if t.Else != nil {
			elseOut = lw.withStates(elseStates, func() { lw.walkStmt(t.Else) })
		}
		lw.states = unionStates(thenOut, elseOut)
	case *ast.ForStmt:
		lw.walkStmt(t.Init)
		lw.walkLoop(t.Cond, t.Body, t.Post, t.Cond == nil)
	case *ast.RangeStmt:
		lw.walkExpr(t.X)
		if typ := lw.info.TypeOf(t.X); typ != nil {
			if _, isCh := typ.Underlying().(*types.Chan); isCh {
				lw.checkBlocking(t.Pos(), "a range over a channel")
			}
		}
		lw.walkLoop(nil, t.Body, nil, false)
	case *ast.SwitchStmt:
		lw.walkStmt(t.Init)
		lw.walkExpr(t.Tag)
		lw.walkCases(t.Body, false)
	case *ast.TypeSwitchStmt:
		lw.walkStmt(t.Init)
		lw.walkStmt(t.Assign)
		lw.walkCases(t.Body, false)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			lw.checkBlocking(t.Pos(), "a blocking select")
		}
		lw.walkSelect(t)
	case *ast.BranchStmt:
		lw.walkBranch(t)
	case *ast.LabeledStmt:
		lw.walkStmt(t.Stmt)
	case *ast.EmptyStmt:
	}
}

// withStates runs f with the given states installed and returns the
// states f left behind.
func (lw *lockWalker) withStates(states []*lockState, f func()) []*lockState {
	save := lw.states
	lw.states = states
	f()
	out := lw.states
	lw.states = save
	return out
}

// walkLoop walks a loop body twice — the second pass, entered with the
// union of entry and first-iteration exit, is what catches a Lock that
// survives into the next iteration — then joins entry, body-exit, and
// break states. Infinite loops (no condition) exit only through breaks.
func (lw *lockWalker) walkLoop(cond ast.Expr, body *ast.BlockStmt, post ast.Stmt, infinite bool) {
	frame := &breakFrame{isLoop: true}
	lw.frames = append(lw.frames, frame)
	if cond != nil {
		lw.walkExpr(cond)
	}
	entry := cloneStates(lw.states)
	for pass := 0; pass < 2; pass++ {
		lw.walkStmt(body)
		lw.states = unionStates(lw.states, frame.continues)
		frame.continues = nil
		lw.walkStmt(post)
		if pass == 0 {
			lw.states = unionStates(entry, lw.states)
			if cond != nil {
				lw.walkExpr(cond)
			}
		}
	}
	if infinite {
		lw.states = frame.breaks
	} else {
		lw.states = unionStates(entry, lw.states, frame.breaks)
	}
	lw.frames = lw.frames[:len(lw.frames)-1]
}

// walkCases walks switch/type-switch clauses, each from the shared
// entry, and joins their exits (plus the entry when no default exists).
func (lw *lockWalker) walkCases(body *ast.BlockStmt, _ bool) {
	frame := &breakFrame{}
	lw.frames = append(lw.frames, frame)
	entry := lw.states
	hasDefault := false
	var outs [][]*lockState
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		out := lw.withStates(cloneStates(entry), func() {
			for _, e := range cc.List {
				lw.walkExpr(e)
			}
			for _, s := range cc.Body {
				lw.walkStmt(s)
			}
		})
		outs = append(outs, out)
	}
	lw.frames = lw.frames[:len(lw.frames)-1]
	joined := frame.breaks
	for _, o := range outs {
		joined = unionStates(joined, o)
	}
	if !hasDefault {
		joined = unionStates(joined, entry)
	}
	lw.states = joined
}

// walkSelect walks each comm clause from the shared entry; the clause's
// channel op itself is exempt from blocking checks (the select was
// already judged) and the exits are joined.
func (lw *lockWalker) walkSelect(sel *ast.SelectStmt) {
	frame := &breakFrame{}
	lw.frames = append(lw.frames, frame)
	entry := lw.states
	var outs [][]*lockState
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		out := lw.withStates(cloneStates(entry), func() {
			save := lw.noBlock
			lw.noBlock = true
			lw.walkStmt(cc.Comm)
			lw.noBlock = save
			for _, s := range cc.Body {
				lw.walkStmt(s)
			}
		})
		outs = append(outs, out)
	}
	lw.frames = lw.frames[:len(lw.frames)-1]
	joined := frame.breaks
	for _, o := range outs {
		joined = unionStates(joined, o)
	}
	lw.states = joined
}

func (lw *lockWalker) walkBranch(t *ast.BranchStmt) {
	switch t.Tok {
	case token.BREAK:
		for i := len(lw.frames) - 1; i >= 0; i-- {
			lw.frames[i].breaks = append(lw.frames[i].breaks, cloneStates(lw.states)...)
			break
		}
		lw.states = nil
	case token.CONTINUE:
		for i := len(lw.frames) - 1; i >= 0; i-- {
			if lw.frames[i].isLoop {
				lw.frames[i].continues = append(lw.frames[i].continues, cloneStates(lw.states)...)
				break
			}
		}
		lw.states = nil
	case token.GOTO, token.FALLTHROUGH:
		// Neither appears in the analyzed layers; keep states flowing.
	}
}

// walkDefer handles defer statements: mutex unlocks register as
// scheduled releases; literal bodies are walked (state changes
// discarded) so guarded accesses inside cleanup closures are still
// checked, then scanned for direct unlocks. The walk comes first: the
// closure's own Unlock is the deferred release, not a second one.
func (lw *lockWalker) walkDefer(t *ast.DeferStmt) {
	if op, ok := lw.w.asMutexOp(lw.info, t.Call); ok {
		if op.method == "Unlock" || op.method == "RUnlock" {
			kind := lockWrite
			if op.method == "RUnlock" {
				kind = lockRead
			}
			for _, s := range lw.states {
				s.deferred = append(s.deferred, defUnlock{key: op.key, kind: kind})
			}
		}
		return
	}
	if lit, ok := ast.Unparen(t.Call.Fun).(*ast.FuncLit); ok {
		sub := lw.subWalker(cloneStates(lw.states), lw.capture)
		sub.frames = nil
		sub.walkStmt(lit.Body)
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if op, isOp := lw.w.asMutexOp(lw.info, call); isOp && (op.method == "Unlock" || op.method == "RUnlock") {
				kind := lockWrite
				if op.method == "RUnlock" {
					kind = lockRead
				}
				for _, s := range lw.states {
					s.deferred = append(s.deferred, defUnlock{key: op.key, kind: kind})
				}
			}
			return true
		})
		return
	}
	// Deferred plain call: arguments are evaluated now; the call itself
	// runs at exit under unknowable lock state, so only the operands are
	// checked.
	if fun, ok := ast.Unparen(t.Call.Fun).(*ast.SelectorExpr); ok {
		lw.walkExpr(fun.X)
	}
	for _, a := range t.Call.Args {
		lw.walkExpr(a)
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
		sub := lw.subWalker([]*lockState{{}}, "a go statement")
		sub.walkBody(lit.Body, lit.Body.Rbrace)
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
			lw.w.reportf(t.Pos(), "call to %s in a go statement requires %s.%s to be held (it guards %s), which cannot cross a goroutine boundary",
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
	if e == nil || lw.states == nil {
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
		sub := lw.subWalker([]*lockState{{}}, "an escaping func literal")
		sub.walkBody(t.Body, t.Body.Rbrace)
	}
}

// checkGuarded enforces rule 1 at one guarded-field access.
func (lw *lockWalker) checkGuarded(sel *ast.SelectorExpr, g *guardInfo, write bool) {
	lw.walkExpr(sel.X)
	if lw.states == nil {
		return
	}
	key, disp, root, simple, ok := lw.w.canonExpr(lw.info, sel.X)
	if !ok {
		return
	}
	reqKey := key + "." + g.name
	fieldDisp := disp + "." + sel.Sel.Name
	lockDisp := disp + "." + g.name
	heldAll, heldAny, readOnly := true, false, false
	for _, s := range lw.states {
		h := s.holds(reqKey)
		if h == nil {
			heldAll = false
			continue
		}
		heldAny = true
		if h.kind != lockWrite {
			readOnly = true
		}
	}
	verb, noun := "read", "read"
	if write {
		verb, noun = "written", "write"
	}
	if lw.capture != "" {
		if !heldAll {
			lw.w.reportf(sel.Sel.Pos(), "%s is guarded by %q but captured in %s without %s held",
				fieldDisp, g.name, lw.capture, lockDisp)
		}
		return
	}
	if heldAll {
		if write && readOnly {
			lw.w.reportf(sel.Sel.Pos(), "%s is guarded by %q but written with only RLock held (Lock required)",
				fieldDisp, g.name)
		}
		return
	}
	if !heldAny && simple && lw.callerIndex(root) != -2 {
		lw.w.addRequire(lw.fn.Obj, lockReq{
			index: lw.callerIndex(root),
			guard: g.name,
			write: write,
			field: g.owner + "." + sel.Sel.Name,
			rw:    g.rw,
		})
		return
	}
	if heldAny {
		lw.w.reportf(sel.Sel.Pos(), "%s is guarded by %q but not locked on every path to this %s (%s may be unlocked here)",
			fieldDisp, g.name, noun, lockDisp)
		return
	}
	lw.w.reportf(sel.Sel.Pos(), "%s is guarded by %q but %s without %s held",
		fieldDisp, g.name, verb, lockDisp)
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
			lw.w.reportf(pos, "%s is held across %s", h.disp, what)
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
	// panic ends the path without a release check: the goroutine is dead
	// and deferred unlocks run during unwinding anyway.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := lw.info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
			for _, a := range call.Args {
				lw.walkExpr(a)
			}
			lw.states = nil
			return
		}
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
			sub := lw.subWalker(cloneStates(lw.states), lw.capture)
			sub.walkBody(lit.Body, lit.Body.Rbrace)
			continue
		}
		lw.walkExpr(a)
	}
	callee := staticCallee(lw.info, call)
	if callee == nil {
		return
	}
	if terminatingFuncs[callee.FullName()] {
		lw.states = nil
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
					lw.w.addEdge(h.class, c, call.Pos())
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
		reqKey := key + "." + req.guard
		heldAll, heldAny, readOnly := true, false, false
		for _, s := range lw.states {
			h := s.holds(reqKey)
			if h == nil {
				heldAll = false
				continue
			}
			heldAny = true
			if h.kind != lockWrite {
				readOnly = true
			}
		}
		if heldAll && (!req.write || !readOnly) {
			continue
		}
		if heldAll && req.write && readOnly {
			lw.w.reportf(call.Pos(), "call to %s requires the write lock on %s.%s (it writes %s), but only RLock is held",
				funcDisplay(callee), disp, req.guard, req.field)
			continue
		}
		if !heldAny && simple && lw.capture == "" && lw.callerIndex(root) != -2 {
			lw.w.addRequire(lw.fn.Obj, lockReq{
				index: lw.callerIndex(root),
				guard: req.guard,
				write: req.write,
				field: req.field,
				rw:    req.rw,
			})
			continue
		}
		lw.w.reportf(call.Pos(), "call to %s requires %s.%s to be held (it guards %s)",
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
				lw.w.reportf(pos, "second %s of %s on this path would deadlock", op.method, op.disp)
				continue
			}
			if op.class != "" {
				for _, h := range s.held {
					if h.class != "" {
						lw.w.addEdge(h.class, op.class, pos)
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
				lw.w.reportf(pos, "%s of %s but it is not locked on this path", op.method, op.disp)
				continue
			}
			if h.kind != need {
				if need == lockWrite {
					lw.w.reportf(pos, "Unlock of %s but only RLock is held (RUnlock required)", op.disp)
				} else {
					lw.w.reportf(pos, "RUnlock of %s but Lock is held (Unlock required)", op.disp)
				}
			}
			if s.hasDeferred(op.key) {
				lw.w.reportf(pos, "%s of %s but a deferred release is already scheduled (double unlock)", op.method, op.disp)
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
