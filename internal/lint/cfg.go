package lint

// cfg is the control-flow graph every flow analyzer shares (DESIGN.md §9):
// basic blocks for one function or func-literal body, modeled on
// golang.org/x/tools/go/cfg (which is not in the module, so it is written
// here), and the forward worklist solver that lockguard and taintzero run
// over it. The index builds each body's graph once per run.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// terminatingFuncs end the goroutine: no path continues past a call to
// one, so the CFG gives the call no successor. Keyed by
// types.Func.FullName; the panic builtin is recognized separately.
var terminatingFuncs = map[string]bool{
	"os.Exit":     true,
	"log.Fatal":   true,
	"log.Fatalf":  true,
	"log.Fatalln": true,
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block; Blocks[0] is the entry. Code that no
	// path reaches (after a return, say) still sits in a block, so an
	// analyzer that visits every node sees every statement.
	Blocks []*Block
	// End is the block whose end falls off the end of the body: the
	// implicit return. It is unreachable when every path returns or stops.
	End *Block
}

// Block is one basic block: its nodes run in order, then control moves
// to one of its successors. A block without successors returns, stops
// at a terminating call, or is End.
//
// A node is a simple statement (assignment, expression, inc/dec,
// declaration, send, defer, go, return), an if or for condition, a switch
// tag or case value, a type switch's assign statement, a select clause's
// comm statement, or a loop or select statement itself. *ast.ForStmt and
// *ast.RangeStmt stand once, in the block that enters the loop, for the
// loop as a whole: a range operand is evaluated there, and analyzers
// recognize loop idioms there. *ast.SelectStmt marks where a select waits.
type Block struct {
	Nodes []ast.Node
	Succs []*Block
	Index int
	// LoopDepth counts the for and range bodies enclosing the block.
	LoopDepth int
	// Comm is the comm statement that starts a select clause's block: the
	// select, not its comm, is what waits.
	Comm ast.Stmt
}

// buildCFG builds the graph of body. info resolves terminating calls.
func buildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{g: &CFG{}, info: info, labels: make(map[string]*targets)}
	b.cur = b.newBlock()
	b.stmts(body.List)
	b.g.End = b.cur
	return b.g
}

// targets is where the branches of one breakable statement, or of one
// label, lead (nil where that branch does not apply). The builder keeps
// the enclosing statements' targets as a chain, innermost first.
type targets struct {
	outer                     *targets
	goTo, brk, cont, fallthru *Block
}

type cfgBuilder struct {
	g       *CFG
	info    *types.Info
	cur     *Block
	depth   int
	targets *targets
	labels  map[string]*targets
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks), LoopDepth: b.depth}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// jump ends the current block with an edge to each of to.
func (b *cfgBuilder) jump(to ...*Block) { b.cur.Succs = append(b.cur.Succs, to...) }

// dead starts a block no edge leads into, for the code after an
// unconditional branch.
func (b *cfgBuilder) dead() { b.cur = b.newBlock() }

func (b *cfgBuilder) label(name string) *targets {
	lt := b.labels[name]
	if lt == nil {
		lt = &targets{goTo: b.newBlock()}
		b.labels[name] = lt
	}
	return lt
}

// within builds list as the body of a breakable statement whose targets
// are t, or lt's when the statement is labeled.
func (b *cfgBuilder) within(lt *targets, t targets, list []ast.Stmt) {
	if lt != nil {
		lt.brk, lt.cont, lt.fallthru = t.brk, t.cont, t.fallthru
	} else {
		lt = &t
	}
	lt.outer, b.targets = b.targets, lt
	b.stmts(list)
	b.targets = lt.outer
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, nil)
	}
}

// stmt adds s; lt is the label s carries, if any.
func (b *cfgBuilder) stmt(s ast.Stmt, lt *targets) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		lt := b.label(s.Label.Name)
		b.jump(lt.goTo)
		b.cur = lt.goTo
		b.stmt(s.Stmt, lt)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.terminates(call) {
			b.dead()
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.dead()
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.stmt(s.Init, nil)
		b.add(s.Cond)
		then, done := b.newBlock(), b.newBlock()
		els := done
		if s.Else != nil {
			els = b.newBlock()
		}
		b.jump(then, els)
		b.cur = then
		b.stmts(s.Body.List)
		b.jump(done)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else, nil)
			b.jump(done)
		}
		b.cur = done
	case *ast.ForStmt:
		b.stmt(s.Init, nil)
		b.add(s)
		head, done := b.newBlock(), b.newBlock()
		cont := head
		if s.Post != nil {
			cont = b.newBlock()
		}
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		b.loop(s.Body, cont, done, s.Cond != nil, lt)
		if s.Post != nil {
			b.cur = cont
			b.stmt(s.Post, nil)
			b.jump(head)
		}
		b.cur = done
	case *ast.RangeStmt:
		b.add(s)
		head, done := b.newBlock(), b.newBlock()
		b.jump(head)
		b.cur = head
		b.loop(s.Body, head, done, true, lt)
		b.cur = done
	case *ast.SwitchStmt:
		b.stmt(s.Init, nil)
		if s.Tag != nil {
			b.add(s.Tag)
		}
		for _, c := range s.Body.List {
			for _, e := range c.(*ast.CaseClause).List {
				b.add(e)
			}
		}
		b.cases(s.Body, lt)
	case *ast.TypeSwitchStmt:
		// The case lists are types, not evaluated values.
		b.stmt(s.Init, nil)
		b.stmt(s.Assign, nil)
		b.cases(s.Body, lt)
	case *ast.SelectStmt:
		b.add(s)
		dispatch, done := b.cur, b.newBlock()
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			b.cur = b.newBlock()
			dispatch.Succs = append(dispatch.Succs, b.cur)
			if cc.Comm != nil {
				b.add(cc.Comm)
				b.cur.Comm = cc.Comm
			}
			b.within(lt, targets{brk: done}, cc.Body)
			b.jump(done)
		}
		b.cur = done
	default:
		// Assignment, inc/dec, declaration, send, defer, go.
		b.add(s)
	}
}

// loop lowers a loop body from the loop's head block: the head enters
// the body, and leaves to done when mayExit (a condition or a range).
// continue goes to cont and break to done.
func (b *cfgBuilder) loop(body *ast.BlockStmt, cont, done *Block, mayExit bool, lt *targets) {
	b.depth++
	entry := b.newBlock()
	b.jump(entry)
	if mayExit {
		b.jump(done)
	}
	b.cur = entry
	b.within(lt, targets{brk: done, cont: cont}, body.List)
	b.depth--
	b.jump(cont)
}

// cases lowers a switch or type switch body: the current block branches
// to each clause, and to the end when no default clause catches the rest.
func (b *cfgBuilder) cases(body *ast.BlockStmt, lt *targets) {
	done := b.newBlock()
	clauses := make([]*Block, len(body.List))
	for i := range clauses {
		clauses[i] = b.newBlock()
	}
	b.jump(clauses...)
	if !hasDefault(body) {
		b.jump(done)
	}
	for i, c := range body.List {
		fallthru := done
		if i+1 < len(clauses) {
			fallthru = clauses[i+1]
		}
		b.cur = clauses[i]
		b.within(lt, targets{brk: done, fallthru: fallthru}, c.(*ast.CaseClause).Body)
		b.jump(done)
	}
	b.cur = done
}

// hasDefault reports whether a switch body has a default clause.
func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if c.(*ast.CaseClause).List == nil {
			return true
		}
	}
	return false
}

// branch lowers break, continue, goto and fallthrough.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	var to *Block
	switch {
	case s.Tok == token.GOTO:
		to = b.label(s.Label.Name).goTo
	case s.Label != nil && s.Tok == token.BREAK:
		to = b.label(s.Label.Name).brk
	case s.Label != nil && s.Tok == token.CONTINUE:
		to = b.label(s.Label.Name).cont
	default:
		for t := b.targets; t != nil && to == nil; t = t.outer {
			switch s.Tok {
			case token.BREAK:
				to = t.brk
			case token.CONTINUE:
				to = t.cont
			case token.FALLTHROUGH:
				to = t.fallthru
			}
		}
	}
	if to != nil {
		b.jump(to)
	}
	b.dead()
}

// terminates reports whether call never returns: panic, or a listed
// terminating function.
func (b *cfgBuilder) terminates(call *ast.CallExpr) bool {
	if b.info == nil {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if bi, isB := b.info.Uses[id].(*types.Builtin); isB {
			return bi.Name() == "panic"
		}
	}
	callee := staticCallee(b.info, call)
	return callee != nil && terminatingFuncs[callee.FullName()]
}

// solve runs a forward dataflow analysis over g to its fixed point.
// transfer maps a block's in-state to its out-state and must not modify
// its argument; join and equal define the lattice. It returns every
// block's in-state, and reached[i] reports whether a path from the entry
// reaches block i (an unreached block's in-state is the zero S).
func solve[S any](g *CFG, entry S, transfer func(*Block, S) S, join func(S, S) S, equal func(S, S) bool) (in []S, reached []bool) {
	in = make([]S, len(g.Blocks))
	reached = make([]bool, len(g.Blocks))
	queued := make([]bool, len(g.Blocks))
	in[0], reached[0], queued[0] = entry, true, true
	work := []*Block{g.Blocks[0]}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		out := transfer(b, in[b.Index])
		for _, s := range b.Succs {
			i := s.Index
			if !reached[i] {
				in[i], reached[i] = out, true
			} else if j := join(in[i], out); !equal(j, in[i]) {
				in[i] = j
			} else {
				continue
			}
			if !queued[i] {
				queued[i] = true
				work = append(work, s)
			}
		}
	}
	return in, reached
}
