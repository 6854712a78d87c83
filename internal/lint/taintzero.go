package lint

// taintzero implements the path-sensitive half of the taintflow analyzer:
// every function that acquires a secret through an acquire-flagged origin
// (taintOrigins) must erase it on every return path — including the error
// paths a happy-path zeroize wipe misses. The check is a forward dataflow
// analysis over the function's CFG (cfg.go) with a two-bit state
// (zeroized, escaped) whose join is AND on both: a finding names a return
// that some path reaches with the secret live in memory.
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

// zstate is the abstract state of the tracked secret at one program
// point. Before the acquisition there is nothing to erase, so the entry
// state counts as zeroized; the acquisition clears both bits.
type zstate struct {
	z   bool // the secret has been erased (or a deferred erase is armed)
	esc bool // the secret escaped to longer-lived storage
}

// live reports whether the secret may still be in memory unerased.
func (st zstate) live() bool { return !st.z && !st.esc }

// checkZeroize enforces zeroize-on-all-paths for every acquire-flagged
// origin binding in fn. Runs only during the reporting pass.
func (w *taintWorld) checkZeroize(fn *Func) {
	if !w.reporting {
		return
	}
	g := w.cfg(fn.Decl.Body, fn.Pkg.Info)
	for _, sec := range w.findAcquisitions(fn) {
		zc := &zeroChecker{w: w, fn: fn, sec: sec}
		in, reached := solve(g, zstate{z: true, esc: true},
			func(b *Block, st zstate) zstate { return zc.block(b, st, false) },
			func(a, b zstate) zstate { return zstate{z: a.z && b.z, esc: a.esc && b.esc} },
			func(a, b zstate) bool { return a == b })
		for _, b := range g.Blocks {
			if !reached[b.Index] {
				continue
			}
			if out := zc.block(b, in[b.Index], true); b == g.End && out.live() {
				w.reportf(fn.Decl.Body.Rbrace,
					"%s %q is not zeroized before the function returns; call ct.Zero on every path",
					sec.what, objName(sec.obj))
			}
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

// zeroChecker carries one (function, secret) analysis.
type zeroChecker struct {
	w   *taintWorld
	fn  *Func
	sec acquiredSecret
}

func (zc *zeroChecker) info() *types.Info { return zc.fn.Pkg.Info }

// mentions reports whether e references the tracked secret object.
func (zc *zeroChecker) mentions(e ast.Node) bool {
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
		if zc.info().Uses[id] == zc.sec.obj || zc.info().Defs[id] == zc.sec.obj {
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
func (zc *zeroChecker) isZeroizeCall(call *ast.CallExpr) bool {
	var name string
	var recv ast.Expr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := zc.info().Uses[fun].(*types.Builtin); ok {
			return zc.isBuiltinErase(b.Name(), call)
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
	if recv != nil && zc.mentions(recv) {
		return true
	}
	for _, a := range call.Args {
		if zc.mentions(a) {
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
func (zc *zeroChecker) isBuiltinErase(name string, call *ast.CallExpr) bool {
	switch name {
	case "clear":
		return len(call.Args) == 1 && zc.mentions(call.Args[0])
	case "copy":
		return len(call.Args) == 2 && zc.mentions(call.Args[0]) && zc.isZeroSource(call.Args[1])
	}
	return false
}

// isZeroSource reports whether e is demonstrably an all-zero source for
// the secret's full length: make([]T, len(secret)) is structurally both,
// and a buffer following the zero-naming convention (an identifier or
// field whose name contains "zero") is accepted with sizing owned by the
// surrounding code.
func (zc *zeroChecker) isZeroSource(e ast.Expr) bool {
	switch src := ast.Unparen(e).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(src.Name), "zero")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(src.Sel.Name), "zero")
	case *ast.SliceExpr:
		return zc.isZeroSource(src.X)
	case *ast.CallExpr:
		fn, ok := ast.Unparen(src.Fun).(*ast.Ident)
		if !ok || fn.Name != "make" || len(src.Args) < 2 {
			return false
		}
		ln, ok := ast.Unparen(src.Args[1]).(*ast.CallExpr)
		if !ok || len(ln.Args) != 1 || !zc.mentions(ln.Args[0]) {
			return false
		}
		lf, ok := ast.Unparen(ln.Fun).(*ast.Ident)
		return ok && lf.Name == "len"
	}
	return false
}

// isZeroRange recognizes `for i := range secret { secret[i] = 0 }`.
func (zc *zeroChecker) isZeroRange(r *ast.RangeStmt) bool {
	if !zc.mentions(r.X) || len(r.Body.List) != 1 {
		return false
	}
	as, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	idx, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok || !zc.mentions(idx.X) {
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
func (zc *zeroChecker) isZeroFor(f *ast.ForStmt) bool {
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
	if !ok || len(bound.Args) != 1 || !zc.mentions(bound.Args[0]) {
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
	if !ok || !zc.mentions(idx.X) || !isIdentNamed(idx.Index, iv.Name) {
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

// block is taintzero's transfer over one CFG block; emit reports the
// returns that leave the secret live.
func (zc *zeroChecker) block(b *Block, st zstate, emit bool) zstate {
	for _, n := range b.Nodes {
		switch t := n.(type) {
		case *ast.AssignStmt:
			if t == zc.sec.stmt {
				st = zstate{}
				continue
			}
			// A store of the secret into a field, map entry, or element
			// escapes it; rebinding the name to something fresh is ignored
			// (aliases are not tracked).
			for i, lhs := range t.Lhs {
				if i < len(t.Rhs) && zc.mentions(t.Rhs[i]) || len(t.Rhs) == 1 && zc.mentions(t.Rhs[0]) {
					switch ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						st.esc = true
					}
				}
			}
			// secret = T{} (empty composite) counts as erasure.
			if len(t.Lhs) == 1 && len(t.Rhs) == 1 {
				if id, ok := ast.Unparen(t.Lhs[0]).(*ast.Ident); ok && zc.mentions(id) {
					if cl, ok := t.Rhs[0].(*ast.CompositeLit); ok && len(cl.Elts) == 0 {
						st.z = true
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(t.X).(*ast.CallExpr); ok && zc.isZeroizeCall(call) {
				st.z = true
			}
		case *ast.DeferStmt:
			if zc.isZeroizeCall(t.Call) {
				st.z = true
			}
		case *ast.ForStmt:
			if zc.isZeroFor(t) {
				st.z = true
			}
		case *ast.RangeStmt:
			if zc.isZeroRange(t) {
				st.z = true
			}
		case *ast.ReturnStmt:
			if emit && st.live() && !zc.returnsSecret(t) {
				zc.w.reportf(t.Pos(),
					"%s %q is not zeroized on this return path; call ct.Zero before returning (error paths too)",
					zc.sec.what, objName(zc.sec.obj))
			}
		}
	}
	return st
}

// returnsSecret reports whether the return transfers the secret to the
// caller (any mention in a result expression counts as ownership moving).
func (zc *zeroChecker) returnsSecret(ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if zc.mentions(r) {
			return true
		}
	}
	return false
}
