package lint

// taintflow is the interprocedural secret-taint analysis: the semantic
// upgrade of the lexical secrets analyzer. SENSS's threat model (paper §2)
// trusts only the processor chips, so the 128-bit session keys, one-time
// pad mask banks, and CBC-MAC chain state must never escape the SHU — yet
// the simulator has many exit ramps (oracle divergence reports, farm cache
// files, trace output, error strings). This analyzer follows the secrets
// through the code instead of pattern-matching their names.
//
// Model (DESIGN.md §12):
//
//   - Origins. Taint enters at struct fields annotated //senss-lint:secret
//     and at the results of functions in the declarative origin table
//     (RSA session plaintext, unwrapped/dispatched session keys). Reads of
//     an annotated field are tainted no matter how the value got there.
//   - Propagation. Assignments, composite literals, slicing, indexing,
//     copy/append, conversions, closures (a FuncLit shares its enclosing
//     environment), and calls. Calls use per-function summaries — which
//     results derive from which parameters, and which parameter referents
//     the callee writes secrets into — computed to a fixpoint over the
//     call graph. Interface calls are resolved against every module type
//     that implements the interface (go/types method sets).
//   - Declassification. Cipher output is public by design: AES encryption
//     and decryption, SHA-256 digests, Block.XOR (the pad-consumption
//     step whose output is ciphertext on the wire), ct.Fingerprint, and
//     the constant-time primitives all cut taint. The persistent stores —
//     keys, schedules, chain state — stay tainted; the datapath that
//     consumes them is clean.
//   - Sinks. Formatting (fmt, log), error construction, JSON marshaling
//     (the oracle divergence report path), file writes (the farm cache),
//     trace records, and panic values. A flow of byte-material taint into
//     any of these is a finding.
//   - Constant time. A ==/!= comparison (or bytes.Equal/Compare,
//     reflect.DeepEqual) whose operand carries secret taint is a finding:
//     use internal/crypto/ct.Equal.
//   - Zeroize on all paths. A function that acquires a secret through an
//     acquire-flagged origin must erase it (ct.Zero, a named wipe helper,
//     or a zeroing loop) on every return path, including error paths,
//     unless the secret itself is returned or stored away.
//
// Waivers follow the usual //senss-lint:ignore taintflow <reason> form and
// are audited: the reason is mandatory (suppress.go enforces it harder for
// this analyzer than for any other).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerTaintflow returns the interprocedural secret-taint analyzer.
func AnalyzerTaintflow() *Analyzer {
	a := &Analyzer{
		Name: "taintflow",
		Doc:  "secret taint must not reach output sinks or variable-time compares, and acquired secrets must be zeroized on all return paths",
	}
	a.RunModule = func(mp *ModulePass) {
		w := &taintWorld{
			solver:       solver{ModulePass: mp},
			secretFields: make(map[*types.Var]string),
			summaries:    make(map[*types.Func]*taintSummary),
			extParam:     make(map[*types.Func]uint64),
		}
		w.run()
	}
	return a
}

// originSpec declares one function whose results introduce taint.
type originSpec struct {
	// results lists the tainted result indices.
	results []int
	// acquire additionally subjects the binding of the listed results to
	// the zeroize-on-all-paths rule.
	acquire bool
	// what names the material in diagnostics.
	what string
}

// taintOrigins is the declarative origin table, keyed by
// (*types.Func).FullName. The "taint." entries serve the fixture package
// and double as a regression test of the key format.
var taintOrigins = map[string]originSpec{
	"senss/internal/crypto/rsa.DecryptKey":        {results: []int{0}, acquire: true, what: "RSA session plaintext"},
	"(*senss/internal/core.Package).Unwrap":       {results: []int{0}, what: "unwrapped session key"},
	"(*senss/internal/core.Distributor).Dispatch": {results: []int{1}, what: "dispatched session key"},
	"taint.unwrapSessionKey":                      {results: []int{0}, acquire: true, what: "session key"},
	"taint.padSchedule":                           {results: []int{0}, what: "pad schedule"},
}

// taintDeclassifiers are the sanctioned taint cuts: functions whose output
// is public by design even when their inputs are secret. Block.XOR is the
// one-time-pad consumption boundary — its output is either wire ciphertext
// or recovered line plaintext, both of which the datapath handles freely;
// the protected material is the persistent pad and key stores.
var taintDeclassifiers = map[string]bool{
	"(senss/internal/crypto/aes.Block).XOR": true,
	"senss/internal/crypto/sha256.Sum256":   true,
	"crypto/sha256.Sum256":                  true,
	"senss/internal/crypto/ct.Equal":        true,
	"senss/internal/crypto/ct.Fingerprint":  true,
	"crypto/subtle.ConstantTimeCompare":     true,
	"crypto/hmac.Equal":                     true,
}

// taintDeclassifierIfaces extends the declassifier table to interface
// methods: a call through a listed interface method declassifies, and so
// does a call to any method (on any type, in or out of the module) that
// implements the interface. This is how every crypto.BlockCipher backend's
// Encrypt/Decrypt cuts taint without a per-implementation entry — adding a
// backend to the registry never requires touching this table. The
// "taint.BlockLike" entry serves the fixture package and doubles as a
// regression test of the resolution. Keyed by package path + type name.
var taintDeclassifierIfaces = map[string][]string{
	"senss/internal/crypto.BlockCipher": {"Encrypt", "Decrypt"},
	"taint.BlockLike":                   {"Encrypt"},
}

// declassIface is one resolved entry of taintDeclassifierIfaces.
type declassIface struct {
	iface   *types.Interface
	methods map[string]bool
}

// zeroizerNames are the function names the zeroize-on-all-paths rule
// recognizes as erasure when called with (or on) the tracked secret.
var zeroizerNames = map[string]bool{
	"Zero": true, "Zeroize": true, "zeroize": true, "Wipe": true, "wipe": true,
}

// maxTaintParams bounds the parameter bitmask width of a summary.
const maxTaintParams = 64

// tval is the taint lattice value of one expression or object: a constant
// component (derives from an origin somewhere) and the set of enclosing-
// function parameters it may derive from (for summary building).
type tval struct {
	c  bool
	ps uint64
}

func (v tval) or(w tval) tval { return tval{v.c || w.c, v.ps | w.ps} }
func (v tval) eq(w tval) bool { return v.c == w.c && v.ps == w.ps }
func (v tval) tainted() bool  { return v.c || v.ps != 0 }
func paramBit(i int) uint64 {
	if i >= maxTaintParams {
		i = maxTaintParams - 1
	}
	return 1 << uint(i)
}

// taintSummary is one function's interprocedural behavior: where each
// result's taint comes from, and which parameter referents the function
// writes taint into (out-parameters).
type taintSummary struct {
	resultConst   []bool
	resultFrom    []uint64
	paramOutConst []bool
	paramOutFrom  []uint64
}

// taintParams lists fn's summary operands: the receiver first, for
// methods, then the declared parameters (the order of a call site's
// operands, receiver expression first).
func taintParams(fn *Func) []*types.Var {
	if fn.Recv == nil {
		return fn.Params
	}
	return append([]*types.Var{fn.Recv}, fn.Params...)
}

// taintArity is len(taintParams(fn)), without building the list.
func taintArity(fn *Func) int {
	if fn.Recv != nil {
		return len(fn.Params) + 1
	}
	return len(fn.Params)
}

// taintWorld is the whole-module analysis state.
type taintWorld struct {
	solver
	// secretFields holds the //senss-lint:secret annotated fields.
	secretFields map[*types.Var]string
	// declassIfaces holds the resolved taintDeclassifierIfaces entries
	// found among the loaded packages and their imports.
	declassIfaces []declassIface
	summaries     map[*types.Func]*taintSummary
	extParam      map[*types.Func]uint64
}

// taintRounds bounds the global fixpoint. Call chains in this module are
// shallow; the bound only guards against a pathological oscillation, and
// the lattice is monotone so the loop normally exits on no-change first.
const taintRounds = 16

func (w *taintWorld) run() {
	for _, pkg := range w.Pkgs {
		if pkg.Info == nil || pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			w.collectSecretFields(pkg, f)
		}
	}
	w.resolveDeclassIfaces()
	w.solve(taintRounds, func(fn *Func) {
		w.analyze(fn)
		w.checkZeroize(fn)
	})
}

// resolveDeclassIfaces looks up every taintDeclassifierIfaces entry among
// the loaded packages and everything they import, so interface-method
// declassification works even when the analyzer runs on a package subset
// that merely imports the interface's package.
func (w *taintWorld) resolveDeclassIfaces() {
	want := make(map[string]map[string][]string) // pkg path → type name → methods
	for key, methods := range taintDeclassifierIfaces {
		dot := strings.LastIndex(key, ".")
		if dot < 0 {
			continue
		}
		path, name := key[:dot], key[dot+1:]
		if want[path] == nil {
			want[path] = make(map[string][]string)
		}
		want[path][name] = methods
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if types_ := want[p.Path()]; types_ != nil {
			for name, methods := range types_ {
				tn, _ := p.Scope().Lookup(name).(*types.TypeName)
				if tn == nil {
					continue
				}
				iface, _ := tn.Type().Underlying().(*types.Interface)
				if iface == nil {
					continue
				}
				ms := make(map[string]bool, len(methods))
				for _, m := range methods {
					ms[m] = true
				}
				w.declassIfaces = append(w.declassIfaces, declassIface{iface: iface, methods: ms})
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range w.Pkgs {
		visit(pkg.Types)
	}
}

// isDeclassifier reports whether a call to callee cuts taint: either a
// direct entry in taintDeclassifiers, or a method declared by (or
// implementing) one of the taintDeclassifierIfaces interfaces.
func (w *taintWorld) isDeclassifier(callee *types.Func) bool {
	if taintDeclassifiers[callee.FullName()] {
		return true
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	for _, di := range w.declassIfaces {
		if !di.methods[callee.Name()] {
			continue
		}
		// An interface receiver implements itself, so both calls through
		// the interface and calls on concrete implementations match.
		if types.Implements(rt, di.iface) || types.Implements(types.NewPointer(rt), di.iface) {
			return true
		}
	}
	return false
}

// collectSecretFields records struct fields annotated //senss-lint:secret
// (in the field's doc comment or line comment).
func (w *taintWorld) collectSecretFields(pkg *Package, f *ast.File) {
	secretDirective := func(cg *ast.CommentGroup) bool {
		if cg == nil {
			return false
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == "senss-lint:secret" {
				return true
			}
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, field := range st.Fields.List {
			if !secretDirective(field.Doc) && !secretDirective(field.Comment) {
				continue
			}
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					w.secretFields[v] = name.Name
				}
			}
		}
		return true
	})
}

// summaryFor returns (allocating if needed) the callee's summary sized to
// its signature.
func (w *taintWorld) summaryFor(fn *Func) *taintSummary {
	s := w.summaries[fn.Obj]
	if s == nil {
		nres := fn.Obj.Type().(*types.Signature).Results().Len()
		s = &taintSummary{
			resultConst:   make([]bool, nres),
			resultFrom:    make([]uint64, nres),
			paramOutConst: make([]bool, taintArity(fn)),
			paramOutFrom:  make([]uint64, taintArity(fn)),
		}
		w.summaries[fn.Obj] = s
	}
	return s
}

// addExtParam marks the callee's parameters in bits as carrying secret
// taint from some call site.
func (w *taintWorld) addExtParam(callee *types.Func, bits uint64) {
	if bits == 0 {
		return
	}
	if w.extParam[callee]|bits != w.extParam[callee] {
		w.extParam[callee] |= bits
		w.changed = true
	}
}

// fstate is the per-function analysis state of one analyze() invocation.
type fstate struct {
	w   *taintWorld
	fn  *Func
	env map[types.Object]tval
	// paramIdx maps the function's own parameters to their bit index.
	paramIdx map[types.Object]int
	changed  bool
}

// analyze runs the flow-insensitive intraprocedural pass over fn to a
// local fixpoint, updating the function's summary and the callees'
// externally-tainted parameter sets.
func (w *taintWorld) analyze(fn *Func) {
	st := &fstate{
		w:        w,
		fn:       fn,
		env:      make(map[types.Object]tval),
		paramIdx: make(map[types.Object]int),
	}
	ext := w.extParam[fn.Obj]
	for i, p := range taintParams(fn) {
		st.paramIdx[p] = i
		v := tval{ps: paramBit(i)}
		if ext&paramBit(i) != 0 {
			v.c = true
		}
		st.env[p] = v
	}
	// Local fixpoint: loop-carried taint needs another sweep; the
	// environment only grows, so this terminates quickly.
	for iter := 0; iter < 20; iter++ {
		st.changed = false
		st.stmts(fn.Decl.Body.List)
		if !st.changed {
			break
		}
	}
}

func (s *fstate) info() *types.Info { return s.fn.Pkg.Info }

// merge grows the taint of obj, tracking both local and global change.
func (s *fstate) merge(obj types.Object, v tval) {
	if obj == nil || !v.tainted() {
		return
	}
	old := s.env[obj]
	nv := old.or(v)
	if nv.eq(old) {
		return
	}
	s.env[obj] = nv
	s.changed = true
	// A parameter whose referent was written with taint is an
	// out-parameter: record it in the summary so callers taint their
	// argument. (merge is called for root objects of element writes; plain
	// rebinding of the parameter name itself is also conservatively
	// included, which only over-taints.)
	if i, ok := s.paramIdx[obj]; ok {
		sum := s.w.summaryFor(s.fn)
		if v.c && !sum.paramOutConst[i] {
			sum.paramOutConst[i] = true
			s.w.changed = true
		}
		from := v.ps &^ paramBit(i)
		if sum.paramOutFrom[i]|from != sum.paramOutFrom[i] {
			sum.paramOutFrom[i] |= from
			s.w.changed = true
		}
	}
}

// rootObj resolves the base object a write through e lands in:
// x, x[i], x[i:j], *x, x.f all root at x.
func (s *fstate) rootObj(e ast.Expr) types.Object {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			// A qualified identifier (pkg.Var) roots at the package-level
			// var; a field selection roots at the container.
			if id, ok := t.X.(*ast.Ident); ok {
				if _, isPkg := s.info().Uses[id].(*types.PkgName); isPkg {
					return s.info().Uses[t.Sel]
				}
			}
			e = t.X
		case *ast.Ident:
			if obj := s.info().Defs[t]; obj != nil {
				return obj
			}
			return s.info().Uses[t]
		default:
			return nil
		}
	}
}

// recvExpr returns the receiver expression of a method call, or nil.
func (s *fstate) recvExpr(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if selInfo, ok := s.info().Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
		return sel.X
	}
	return nil
}

// eval computes the taint of e, analyzing side effects (calls, closures)
// along the way.
func (s *fstate) eval(e ast.Expr) tval {
	switch t := e.(type) {
	case nil:
		return tval{}
	case *ast.Ident:
		if obj := s.info().Uses[t]; obj != nil {
			if v, ok := s.secretField(obj); ok {
				return v
			}
			return s.env[obj]
		}
		return tval{}
	case *ast.ParenExpr:
		return s.eval(t.X)
	case *ast.SelectorExpr:
		if obj := s.info().Uses[t.Sel]; obj != nil {
			if v, ok := s.secretField(obj); ok {
				return v
			}
			if _, isField := obj.(*types.Var); isField {
				if id, ok := t.X.(*ast.Ident); ok {
					if _, isPkg := s.info().Uses[id].(*types.PkgName); isPkg {
						return s.env[obj] // package-level var
					}
				}
				// Unannotated field read: clean. Struct containers do not
				// smear taint across their fields — the //senss-lint:secret
				// annotation is the declared boundary, and container
				// propagation here floods generic plumbing (a tainted MAC
				// tag stored in a bus transaction would taint every enum
				// field of every transaction). Sinks still see through
				// structs via the argument subtree scan.
				s.eval(t.X)
				return tval{}
			}
		}
		return tval{}
	case *ast.IndexExpr:
		s.eval(t.Index)
		return s.eval(t.X)
	case *ast.SliceExpr:
		return s.eval(t.X)
	case *ast.StarExpr:
		return s.eval(t.X)
	case *ast.UnaryExpr:
		return s.eval(t.X)
	case *ast.CompositeLit:
		// Element taint is absorbed by data containers (arrays, slices,
		// maps) but not by struct literals: mirroring the field-read rule,
		// a struct does not become secret because one field holds secret
		// material. Elements are still evaluated for side effects, and a
		// struct literal wrapped straight around a secret at a sink is
		// caught by the sink's subtree scan.
		var v tval
		for _, el := range t.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = v.or(s.eval(kv.Value))
			} else {
				v = v.or(s.eval(el))
			}
		}
		if ct := s.info().TypeOf(t); ct != nil {
			if _, isStruct := ct.Underlying().(*types.Struct); isStruct {
				return tval{}
			}
		}
		return v
	case *ast.BinaryExpr:
		x, y := s.eval(t.X), s.eval(t.Y)
		switch t.Op {
		case token.EQL, token.NEQ:
			s.checkCompare(t, x, y)
			return tval{}
		case token.LSS, token.GTR, token.LEQ, token.GEQ,
			token.LAND, token.LOR:
			return tval{}
		}
		return x.or(y)
	case *ast.TypeAssertExpr:
		return s.eval(t.X)
	case *ast.FuncLit:
		// The closure body runs in (a superset of) this environment:
		// analyze it inline so captured secrets keep flowing. The closure
		// value itself is not taint.
		s.stmts(t.Body.List)
		return tval{}
	case *ast.CallExpr:
		return s.call(t, 1)[0]
	case *ast.KeyValueExpr:
		return s.eval(t.Value)
	}
	return tval{}
}

// secretField reports whether obj is an annotated secret field.
func (s *fstate) secretField(obj types.Object) (tval, bool) {
	if v, ok := obj.(*types.Var); ok {
		if _, secret := s.w.secretFields[v]; secret {
			return tval{c: true}, true
		}
	}
	return tval{}, false
}

// call models one call expression: declassifiers, origins, sinks,
// summaries, interface resolution, and the builtin special cases. It
// evaluates the call once and returns the taint of each of its first n
// results (n is 1 in expression position).
func (s *fstate) call(call *ast.CallExpr, n int) []tval {
	out := make([]tval, n)
	info := s.info()
	// Conversions: T(x) keeps x's taint.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			out[0] = s.eval(call.Args[0])
		}
		return out
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			out[0] = s.builtin(call, b.Name())
			return out
		}
	}

	callee := staticCallee(s.info(), call)

	// Argument taints: receiver first (mirroring summary parameter order).
	var args []ast.Expr
	if recv := s.recvExpr(call); recv != nil {
		args = append(args, recv)
	}
	args = append(args, call.Args...)
	avals := make([]tval, len(args))
	var join tval
	for i, a := range args {
		avals[i] = s.eval(a)
		join = join.or(avals[i])
	}

	if callee == nil {
		// Indirect call through a func value: no summary; conservatively
		// join the arguments into every result.
		for i := range out {
			out[i] = join
		}
		return out
	}

	if s.w.isDeclassifier(callee) {
		return out
	}
	if w, sunk := taintSinkOf(callee); sunk {
		for i, a := range args {
			if i == 0 && len(args) > len(call.Args) {
				continue // the receiver of a sink method is the writer, not data
			}
			s.checkSinkArg(call, a, w)
		}
	}
	if isCompareCall(callee) {
		for i, a := range args {
			if avals[i].c && materialTaintType(info.TypeOf(a)) {
				s.w.reportf(call.Pos(), "secret material compared with %s; use ct.Equal (constant time)", callee.Name())
				break
			}
		}
		return out
	}

	// The static callee, or every module implementation of an interface
	// method.
	targets := s.w.targets(callee)
	for _, target := range targets {
		tf := s.w.funcs[target]
		np := taintArity(tf)
		sum := s.w.summaryFor(tf)
		// Push caller taint into the callee's parameter set.
		var bits uint64
		for i, av := range avals {
			if av.c && i < np {
				bits |= paramBit(i)
			}
		}
		// Variadic overflow arguments land in the last parameter.
		if len(avals) > np && np > 0 {
			for i := np; i < len(avals); i++ {
				if avals[i].c {
					bits |= paramBit(np - 1)
				}
			}
		}
		s.w.addExtParam(target, bits)
		// Out-parameters: taint the caller's argument roots.
		for i := 0; i < np && i < len(args); i++ {
			o := tval{c: sum.paramOutConst[i]}
			for j := 0; j < np && j < len(avals); j++ {
				if sum.paramOutFrom[i]&paramBit(j) != 0 {
					o = o.or(avals[j])
				}
			}
			if o.tainted() {
				s.merge(s.rootObj(args[i]), o)
			}
		}
		for i := range out {
			out[i] = out[i].or(s.callResult(sum, avals, tf, i))
		}
	}
	if orig, ok := taintOrigins[callee.FullName()]; ok {
		for _, r := range orig.results {
			if r < n {
				out[r].c = true
			}
		}
		return out
	}
	if len(targets) == 0 {
		// Unsummarized (standard library) call: taint in, taint out.
		for i := range out {
			out[i] = out[i].or(join)
		}
	}
	return out
}

// callResult translates a callee summary result into the caller's frame.
func (s *fstate) callResult(sum *taintSummary, avals []tval, tf *Func, idx int) tval {
	if idx >= len(sum.resultConst) {
		return tval{}
	}
	v := tval{c: sum.resultConst[idx]}
	for j := 0; j < taintArity(tf) && j < len(avals); j++ {
		if sum.resultFrom[idx]&paramBit(j) != 0 {
			v = v.or(avals[j])
		}
	}
	return v
}

// builtin models the handful of builtins that move or create data.
func (s *fstate) builtin(call *ast.CallExpr, name string) tval {
	switch name {
	case "append":
		var v tval
		for _, a := range call.Args {
			v = v.or(s.eval(a))
		}
		return v
	case "copy":
		if len(call.Args) == 2 {
			src := s.eval(call.Args[1])
			s.eval(call.Args[0])
			if !s.throughField(ast.Unparen(call.Args[0])) {
				s.merge(s.rootObj(call.Args[0]), src)
			}
		}
		return tval{}
	case "panic":
		if len(call.Args) == 1 {
			s.checkSinkArg(call, call.Args[0], "panic")
		}
		return tval{}
	case "min", "max":
		var v tval
		for _, a := range call.Args {
			v = v.or(s.eval(a))
		}
		return v
	default:
		// len, cap, make, new, delete, clear, print... — evaluate the
		// arguments for their side effects; the result carries no taint
		// (len/cap of a secret are public metadata).
		for _, a := range call.Args {
			s.eval(a)
		}
		return tval{}
	}
}

// checkCompare reports a variable-time comparison of secret material.
func (s *fstate) checkCompare(b *ast.BinaryExpr, x, y tval) {
	if !s.reportingOn() {
		return
	}
	info := s.info()
	if (x.c && materialTaintType(info.TypeOf(b.X))) || (y.c && materialTaintType(info.TypeOf(b.Y))) {
		s.w.reportf(b.OpPos, "secret material compared with %s; use ct.Equal (constant time)", b.Op)
	}
}

func (s *fstate) reportingOn() bool { return s.w.reporting }

// checkSinkArg reports secret byte material anywhere inside a sink
// argument (the value may be wrapped in a composite literal or
// conversion, so the whole subtree is scanned).
func (s *fstate) checkSinkArg(call *ast.CallExpr, arg ast.Expr, sink string) {
	if !s.reportingOn() {
		return
	}
	info := s.info()
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if _, isLit := e.(*ast.FuncLit); isLit {
			return false // closure bodies are analyzed separately
		}
		if v := s.eval(e); v.c && materialTaintType(info.TypeOf(e)) {
			found = true
			return false
		}
		if _, isCall := e.(*ast.CallExpr); isCall {
			// A call is atomic here: what flows to the sink is the call's
			// result, already checked above — len(secret) is clean
			// metadata, while an unsanctioned transform stays tainted.
			return false
		}
		return true
	})
	if found {
		s.w.reportf(call.Pos(), "secret material flows into %s; redact it (ct.Fingerprint) or drop it", sink)
	}
}

// taintSinkOf classifies output sinks by callee package and name.
func taintSinkOf(fn *types.Func) (string, bool) {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	switch pkg {
	case "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Sprint") ||
			strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Append") ||
			name == "Errorf" {
			return "fmt." + name, true
		}
	case "log":
		return "log." + name, true
	case "errors":
		if name == "New" {
			return "errors.New", true
		}
	case "encoding/json":
		if name == "Marshal" || name == "MarshalIndent" || name == "Encode" {
			return "encoding/json." + name, true
		}
	case "os":
		if name == "WriteFile" || name == "Write" || name == "WriteString" {
			return "os." + name, true
		}
	case "net/http":
		// HTTP responses are the serving layer's wire: ResponseWriter.Write
		// (an interface method, so it also catches every concrete writer
		// resolved through it) and http.Error both publish their argument
		// bytes to a remote client. Secret material must be reduced to a
		// SessionFP fingerprint (ct.Fingerprint / sha256) before it may
		// appear in a response body.
		if name == "Write" || name == "Error" {
			return "net/http." + name, true
		}
	case "senss/internal/trace":
		return "trace." + name, true
	}
	return "", false
}

// isCompareCall reports the variable-time comparison helpers.
func isCompareCall(fn *types.Func) bool {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	switch pkg {
	case "bytes":
		return name == "Equal" || name == "Compare"
	case "reflect":
		return name == "DeepEqual"
	case "strings":
		return name == "EqualFold"
	}
	return false
}

// materialTaintType reports whether t is byte material whose comparison or
// output genuinely leaks secret bytes: strings, bytes, and (nested) byte
// arrays/slices. Integers and structs are excluded — taint rides through
// them, but lengths, counters, and wrappers are not the leak itself.
func materialTaintType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.Uint8 || u.Kind() == types.UntypedString
	case *types.Slice:
		return materialTaintType(u.Elem())
	case *types.Array:
		return materialTaintType(u.Elem())
	case *types.Pointer:
		return materialTaintType(u.Elem())
	}
	return false
}

// --- statement walking ---

func (s *fstate) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *fstate) stmt(st ast.Stmt) {
	switch t := st.(type) {
	case nil:
	case *ast.AssignStmt:
		s.assign(t)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					if call, ok := vs.Values[0].(*ast.CallExpr); ok {
						vals := s.call(call, len(vs.Names))
						for i, name := range vs.Names {
							s.merge(s.info().Defs[name], vals[i])
						}
						return
					}
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						s.merge(s.info().Defs[name], s.eval(vs.Values[i]))
					}
				}
			}
		}
	case *ast.ExprStmt:
		s.eval(t.X)
	case *ast.IfStmt:
		s.stmt(t.Init)
		s.eval(t.Cond)
		s.stmts(t.Body.List)
		s.stmt(t.Else)
	case *ast.BlockStmt:
		s.stmts(t.List)
	case *ast.ForStmt:
		s.stmt(t.Init)
		s.eval(t.Cond)
		s.stmt(t.Post)
		s.stmts(t.Body.List)
	case *ast.RangeStmt:
		v := s.eval(t.X)
		if t.Key != nil {
			s.assignExpr(t.Key, v)
		}
		if t.Value != nil {
			s.assignExpr(t.Value, v)
		}
		s.stmts(t.Body.List)
	case *ast.ReturnStmt:
		s.recordReturn(t)
	case *ast.SwitchStmt:
		s.stmt(t.Init)
		s.eval(t.Tag)
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					// A case clause against a switch tag is a comparison.
					if tag := t.Tag; tag != nil {
						s.checkCaseCompare(tag, e)
					}
					s.eval(e)
				}
				s.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		s.stmt(t.Init)
		s.stmt(t.Assign)
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.stmt(cc.Comm)
				s.stmts(cc.Body)
			}
		}
	case *ast.DeferStmt:
		s.eval(t.Call)
	case *ast.GoStmt:
		s.eval(t.Call)
	case *ast.SendStmt:
		s.eval(t.Chan)
		s.eval(t.Value)
	case *ast.LabeledStmt:
		s.stmt(t.Stmt)
	case *ast.IncDecStmt:
		s.eval(t.X)
	}
}

// checkCaseCompare treats `switch tag { case e }` as tag == e.
func (s *fstate) checkCaseCompare(tag, e ast.Expr) {
	if !s.reportingOn() {
		return
	}
	info := s.info()
	tv, ev := s.eval(tag), s.eval(e)
	if (tv.c && materialTaintType(info.TypeOf(tag))) || (ev.c && materialTaintType(info.TypeOf(e))) {
		s.w.reportf(e.Pos(), "secret material compared with case clause; use ct.Equal (constant time)")
	}
}

// assign handles every AssignStmt shape: parallel, multi-value call,
// two-value map/type-assert reads.
func (s *fstate) assign(t *ast.AssignStmt) {
	if len(t.Lhs) > 1 && len(t.Rhs) == 1 {
		var vals []tval
		switch r := ast.Unparen(t.Rhs[0]).(type) {
		case *ast.CallExpr:
			vals = s.call(r, len(t.Lhs))
		default:
			v := s.eval(t.Rhs[0])
			vals = make([]tval, len(t.Lhs))
			vals[0] = v // map read / type assert: the ok bool is clean
		}
		for i, lhs := range t.Lhs {
			s.assignExpr(lhs, vals[i])
		}
		return
	}
	for i, lhs := range t.Lhs {
		if i >= len(t.Rhs) {
			break
		}
		v := s.eval(t.Rhs[i])
		if t.Tok != token.ASSIGN && t.Tok != token.DEFINE {
			// Compound assignment (^=, +=, |=, ...) folds the old value in.
			v = v.or(s.eval(lhs))
		}
		s.assignExpr(lhs, v)
	}
}

// assignExpr merges v into the object behind lhs (the root container for
// element and pointer writes). Writes that pass through a struct-field
// selector do not taint the container, matching the field-read rule:
// annotated fields carry their own taint, and tainting the whole struct
// for one field write floods everything the struct later touches.
func (s *fstate) assignExpr(lhs ast.Expr, v tval) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if obj := s.info().Defs[id]; obj != nil {
			s.merge(obj, v)
			return
		}
		s.merge(s.info().Uses[id], v)
		return
	}
	if s.throughField(lhs) {
		return
	}
	s.merge(s.rootObj(lhs), v)
}

// throughField reports whether lhs reaches its root object through a
// struct-field selection (x.f = v, x.f[i] = v, ...). Package-qualified
// identifiers (pkg.Var) are not field selections.
func (s *fstate) throughField(lhs ast.Expr) bool {
	for {
		switch t := lhs.(type) {
		case *ast.ParenExpr:
			lhs = t.X
		case *ast.IndexExpr:
			lhs = t.X
		case *ast.SliceExpr:
			lhs = t.X
		case *ast.StarExpr:
			lhs = t.X
		case *ast.SelectorExpr:
			if id, ok := t.X.(*ast.Ident); ok {
				if _, isPkg := s.info().Uses[id].(*types.PkgName); isPkg {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
}

// recordReturn folds return-value taints into the function's summary.
func (s *fstate) recordReturn(ret *ast.ReturnStmt) {
	sum := s.w.summaryFor(s.fn)
	sig := s.fn.Obj.Type().(*types.Signature)
	var vals []tval
	switch {
	case len(ret.Results) == 0 && sig.Results().Len() > 0:
		// Naked return: read the named result objects.
		for i := 0; i < sig.Results().Len(); i++ {
			vals = append(vals, s.env[sig.Results().At(i)])
		}
	case len(ret.Results) == 1 && sig.Results().Len() > 1:
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			vals = s.call(call, sig.Results().Len())
		} else {
			vals = make([]tval, sig.Results().Len())
		}
	default:
		for _, r := range ret.Results {
			vals = append(vals, s.eval(r))
		}
	}
	for i, v := range vals {
		if i >= len(sum.resultConst) {
			break
		}
		if v.c && !sum.resultConst[i] {
			sum.resultConst[i] = true
			s.w.changed = true
		}
		if sum.resultFrom[i]|v.ps != sum.resultFrom[i] {
			sum.resultFrom[i] |= v.ps
			s.w.changed = true
		}
	}
}
