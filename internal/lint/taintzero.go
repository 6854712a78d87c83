package lint

// taintzero implements the path-sensitive half of the taintflow analyzer:
// every function that acquires a secret through an acquire-flagged origin
// (taintOrigins) must erase it on every return path — including the error
// paths a happy-path zeroize wipe misses. The check is deliberately
// syntactic: it walks the statement tree with a tiny abstract state
// (acquired / zeroized / escaped) and merges branches conservatively, so
// a finding always names a concrete return that can leave the secret live
// in memory.
//
// Recognized erasures:
//
//   - a call to a function named Zero/Zeroize/zeroize/Wipe/wipe with the
//     secret as an argument or receiver (ct.Zero and the tree's existing
//     zeroize helpers both match);
//   - the clear(secret) builtin (Go 1.21+), which zeroes every element;
//   - copy(secret, zeroSrc) from a full-length zero source: either
//     make([]T, len(secret)) — freshly zeroed at exactly the right
//     length — or a buffer following the zero-naming convention
//     (an identifier or field containing "zero"), whose sizing the
//     surrounding code owns;
//   - `for i := range secret { secret[i] = 0 }`;
//   - the counted form, `for i := 0; i < len(secret); i++ { secret[i] = 0 }`;
//   - assignment of an empty composite literal (secret = T{});
//   - the deferred form of the call, which covers every later return.
//
// Exemptions: a return whose expressions mention the secret transfers
// ownership to the caller (which becomes the acquiring function in the
// caller's own analysis when listed in the origin table), and a store of
// the secret into a field, map, or slice element escapes it to a longer-
// lived owner whose lifecycle this function cannot end.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// acquiredSecret is one tracked (object, origin) pair in a function body.
type acquiredSecret struct {
	obj  types.Object
	stmt ast.Stmt // the acquiring assignment
	what string
}

// zstate is the abstract state of one control-flow path.
type zstate struct {
	acq bool // the acquisition site has executed
	z   bool // the secret has been erased (or a deferred erase is armed)
	esc bool // the secret escaped to longer-lived storage
}

// checkZeroize enforces zeroize-on-all-paths for every acquire-flagged
// origin binding in fn. Runs only during the reporting pass.
func (w *taintWorld) checkZeroize(fn *Func) {
	if !w.reporting {
		return
	}
	secrets := w.findAcquisitions(fn)
	for _, sec := range secrets {
		zw := &zeroWalker{w: w, fn: fn, sec: sec}
		st, falls := zw.stmts(fn.Decl.Body.List, zstate{})
		if falls && st.acq && !st.z && !st.esc {
			w.reportf(fn.Decl.Body.Rbrace,
				"%s %q is not zeroized before the function returns; call ct.Zero on every path",
				sec.what, objName(sec.obj))
		}
	}
}

// findAcquisitions locates assignments binding an acquire-origin result to
// a local identifier.
func (w *taintWorld) findAcquisitions(fn *Func) []acquiredSecret {
	info := fn.Pkg.Info
	var out []acquiredSecret
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(info, call)
		if callee == nil {
			return true
		}
		orig, ok := taintOrigins[callee.FullName()]
		if !ok || !orig.acquire {
			return true
		}
		for _, r := range orig.results {
			if r >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[r].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				out = append(out, acquiredSecret{obj: obj, stmt: as, what: orig.what})
			}
		}
		return true
	})
	return out
}

func objName(obj types.Object) string {
	if obj == nil {
		return "?"
	}
	return obj.Name()
}

// zeroWalker carries one (function, secret) path walk.
type zeroWalker struct {
	w   *taintWorld
	fn  *Func
	sec acquiredSecret
}

func (zw *zeroWalker) info() *types.Info { return zw.fn.Pkg.Info }

// mentions reports whether e references the tracked secret object.
func (zw *zeroWalker) mentions(e ast.Node) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if zw.info().Uses[id] == zw.sec.obj || zw.info().Defs[id] == zw.sec.obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// isZeroizeCall recognizes a call erasing the secret: a function named
// like an eraser whose receiver or arguments mention the secret, or one
// of the builtin erasure forms (clear, full-length copy from zeros).
func (zw *zeroWalker) isZeroizeCall(call *ast.CallExpr) bool {
	var name string
	var recv ast.Expr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := zw.info().Uses[fun].(*types.Builtin); ok {
			return zw.isBuiltinErase(b.Name(), call)
		}
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		recv = fun.X
	default:
		return false
	}
	if !zeroizerNames[name] {
		return false
	}
	if recv != nil && zw.mentions(recv) {
		return true
	}
	for _, a := range call.Args {
		if zw.mentions(a) {
			return true
		}
	}
	return false
}

// isBuiltinErase recognizes the builtin erasure forms: clear(secret),
// which zeroes every element in place, and copy(secret, src) with a
// full-length zero source. A copy from anything else — including the
// secret itself (copy(secret, secret[8:])) — is data movement, not
// erasure, and isZeroSource rejects it.
func (zw *zeroWalker) isBuiltinErase(name string, call *ast.CallExpr) bool {
	switch name {
	case "clear":
		return len(call.Args) == 1 && zw.mentions(call.Args[0])
	case "copy":
		return len(call.Args) == 2 && zw.mentions(call.Args[0]) && zw.isZeroSource(call.Args[1])
	}
	return false
}

// isZeroSource reports whether e is demonstrably an all-zero source for
// the secret's full length: make([]T, len(secret)) is structurally both,
// and a buffer following the zero-naming convention (an identifier or
// field whose name contains "zero") is accepted with sizing owned by the
// surrounding code.
func (zw *zeroWalker) isZeroSource(e ast.Expr) bool {
	switch src := ast.Unparen(e).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(src.Name), "zero")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(src.Sel.Name), "zero")
	case *ast.SliceExpr:
		return zw.isZeroSource(src.X)
	case *ast.CallExpr:
		fn, ok := ast.Unparen(src.Fun).(*ast.Ident)
		if !ok || fn.Name != "make" || len(src.Args) < 2 {
			return false
		}
		ln, ok := ast.Unparen(src.Args[1]).(*ast.CallExpr)
		if !ok || len(ln.Args) != 1 || !zw.mentions(ln.Args[0]) {
			return false
		}
		lf, ok := ast.Unparen(ln.Fun).(*ast.Ident)
		return ok && lf.Name == "len"
	}
	return false
}

// isZeroRange recognizes `for i := range secret { secret[i] = 0 }`.
func (zw *zeroWalker) isZeroRange(r *ast.RangeStmt) bool {
	if !zw.mentions(r.X) || len(r.Body.List) != 1 {
		return false
	}
	as, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	idx, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok || !zw.mentions(idx.X) {
		return false
	}
	if lit, ok := as.Rhs[0].(*ast.BasicLit); ok && lit.Value == "0" {
		return true
	}
	return false
}

// isZeroFor recognizes the counted zeroing idiom,
// `for i := 0; i < len(secret); i++ { secret[i] = 0 }`: index declared
// zero, bounded by the secret's length, incremented by one, with a single
// body statement storing zero through that index. (An empty secret skips
// the body, but then there is nothing left to erase, so the loop is still
// a complete erasure.)
func (zw *zeroWalker) isZeroFor(f *ast.ForStmt) bool {
	init, ok := f.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return false
	}
	iv, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	if lit, ok := init.Rhs[0].(*ast.BasicLit); !ok || lit.Value != "0" {
		return false
	}
	cond, ok := f.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS || !isIdentNamed(cond.X, iv.Name) {
		return false
	}
	bound, ok := ast.Unparen(cond.Y).(*ast.CallExpr)
	if !ok || len(bound.Args) != 1 || !zw.mentions(bound.Args[0]) {
		return false
	}
	if fn, ok := ast.Unparen(bound.Fun).(*ast.Ident); !ok || fn.Name != "len" {
		return false
	}
	inc, ok := f.Post.(*ast.IncDecStmt)
	if !ok || inc.Tok != token.INC || !isIdentNamed(inc.X, iv.Name) {
		return false
	}
	if f.Body == nil || len(f.Body.List) != 1 {
		return false
	}
	as, ok := f.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	idx, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok || !zw.mentions(idx.X) || !isIdentNamed(idx.Index, iv.Name) {
		return false
	}
	lit, ok := as.Rhs[0].(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// isIdentNamed reports whether e is (possibly parenthesized) the bare
// identifier name.
func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

// stmts walks a statement list, returning the outgoing state and whether
// control can fall off the end.
func (zw *zeroWalker) stmts(list []ast.Stmt, st zstate) (zstate, bool) {
	for _, s := range list {
		var falls bool
		st, falls = zw.stmt(s, st)
		if !falls {
			return st, false
		}
	}
	return st, true
}

// merge joins two fall-through branch states.
func merge(a, b zstate) zstate {
	return zstate{
		acq: a.acq || b.acq,
		z:   a.z && b.z,
		esc: a.esc && b.esc,
	}
}

func (zw *zeroWalker) stmt(s ast.Stmt, st zstate) (zstate, bool) {
	switch t := s.(type) {
	case nil:
		return st, true
	case *ast.AssignStmt:
		if t == zw.sec.stmt {
			st.acq, st.z, st.esc = true, false, false
			return st, true
		}
		// A store of the secret into a field, map entry, or element
		// escapes it; rebinding the name to something fresh is ignored
		// (aliases are not tracked).
		for i, lhs := range t.Lhs {
			if i < len(t.Rhs) && zw.mentions(t.Rhs[i]) || len(t.Rhs) == 1 && zw.mentions(t.Rhs[0]) {
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					st.esc = true
				}
			}
		}
		// secret = T{} (empty composite) counts as erasure.
		if len(t.Lhs) == 1 && len(t.Rhs) == 1 {
			if id, ok := ast.Unparen(t.Lhs[0]).(*ast.Ident); ok && zw.mentions(id) {
				if cl, ok := t.Rhs[0].(*ast.CompositeLit); ok && len(cl.Elts) == 0 {
					st.z = true
				}
			}
		}
		return st, true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(t.X).(*ast.CallExpr); ok && zw.isZeroizeCall(call) {
			st.z = true
		}
		return st, true
	case *ast.DeferStmt:
		if zw.isZeroizeCall(t.Call) {
			st.z = true
		}
		return st, true
	case *ast.ReturnStmt:
		if st.acq && !st.z && !st.esc && !zw.returnsSecret(t) {
			zw.w.reportf(t.Pos(),
				"%s %q is not zeroized on this return path; call ct.Zero before returning (error paths too)",
				zw.sec.what, objName(zw.sec.obj))
		}
		return st, false
	case *ast.BlockStmt:
		return zw.stmts(t.List, st)
	case *ast.IfStmt:
		st, _ = zw.stmt(t.Init, st)
		bodySt, bodyFalls := zw.stmts(t.Body.List, st)
		elseSt, elseFalls := st, true
		if t.Else != nil {
			elseSt, elseFalls = zw.stmt(t.Else, st)
		}
		switch {
		case bodyFalls && elseFalls:
			return merge(bodySt, elseSt), true
		case bodyFalls:
			return bodySt, true
		case elseFalls:
			return elseSt, true
		default:
			return st, false
		}
	case *ast.ForStmt:
		if zw.isZeroFor(t) {
			st.z = true
			return st, true
		}
		st, _ = zw.stmt(t.Init, st)
		// The body may run zero times: its erasures do not count after
		// the loop, but its returns are still checked.
		zw.stmts(t.Body.List, st)
		return st, true
	case *ast.RangeStmt:
		if zw.isZeroRange(t) {
			st.z = true
			return st, true
		}
		zw.stmts(t.Body.List, st)
		return st, true
	case *ast.SwitchStmt:
		return zw.caseBodies(t.Body, st, t.Body != nil && hasDefault(t.Body))
	case *ast.TypeSwitchStmt:
		return zw.caseBodies(t.Body, st, t.Body != nil && hasDefault(t.Body))
	case *ast.SelectStmt:
		return zw.caseBodies(t.Body, st, true)
	case *ast.LabeledStmt:
		return zw.stmt(t.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave this straight-line path; the loop or
		// label context re-checks from the conservative pre-state.
		return st, false
	default:
		return st, true
	}
}

// caseBodies merges the states of every case clause. Without a default
// the switch may match nothing, so the incoming state joins the merge.
func (zw *zeroWalker) caseBodies(body *ast.BlockStmt, st zstate, exhaustive bool) (zstate, bool) {
	if body == nil {
		return st, true
	}
	merged := st
	haveMerged := !exhaustive
	anyFalls := !exhaustive
	for _, c := range body.List {
		var caseBody []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			caseBody = cc.Body
		case *ast.CommClause:
			caseBody = cc.Body
		default:
			continue
		}
		cs, falls := zw.stmts(caseBody, st)
		if !falls {
			continue
		}
		anyFalls = true
		if !haveMerged {
			merged, haveMerged = cs, true
		} else {
			merged = merge(merged, cs)
		}
	}
	if !anyFalls {
		return st, false
	}
	return merged, true
}

// hasDefault reports whether a switch body carries a default clause.
func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// returnsSecret reports whether the return transfers the secret to the
// caller (any mention in a result expression counts as ownership moving).
func (zw *zeroWalker) returnsSecret(ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if zw.mentions(r) {
			return true
		}
	}
	return false
}
