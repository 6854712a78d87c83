package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestCFG builds the graph of small function bodies and checks it at
// marker calls: mark("A") is reachable or not, and its successors are
// the markers a path reaches next, plus "ret" for a return and "end" for
// falling off the end of the body. A path that stops at panic or
// os.Exit contributes nothing.
func TestCFG(t *testing.T) {
	cases := []struct {
		name string
		body string
		next map[string]string // marker -> sorted successors, space-separated
		dead []string          // markers no path reaches
	}{
		{
			name: "labeled break leaves both loops",
			body: `
outer:
	for range xs {
		for range xs {
			mark("A")
			break outer
		}
		mark("B")
	}
	mark("C")`,
			next: map[string]string{"A": "C", "B": "A B C"},
		},
		{
			name: "labeled continue skips the rest of the outer body",
			body: `
outer:
	for i := 0; i < n; i++ {
		switch i {
		case 1:
			mark("A")
			continue outer
		}
		mark("B")
	}
	mark("C")`,
			next: map[string]string{"A": "A B C", "B": "A B C"},
		},
		{
			name: "goto forward and back",
			body: `
	mark("A")
	if c {
		goto skip
	}
	mark("B")
skip:
	mark("C")
	if c {
		goto skip
	}`,
			next: map[string]string{"A": "B C", "B": "C", "C": "C end"},
		},
		{
			name: "fallthrough enters the next clause",
			body: `
	switch n {
	case 0:
		mark("A")
		fallthrough
	case 1:
		mark("B")
	default:
		mark("C")
	}
	mark("D")`,
			next: map[string]string{"A": "B", "B": "D", "C": "D"},
		},
		{
			name: "switch without default can match nothing",
			body: `
	mark("A")
	switch n {
	case 0:
		mark("B")
		break
	case 1:
		mark("C")
	}
	mark("D")`,
			next: map[string]string{"A": "B C D", "B": "D"},
		},
		{
			name: "select with default",
			body: `
	mark("A")
	select {
	case <-ch:
		mark("B")
	default:
		mark("C")
	}
	mark("D")`,
			next: map[string]string{"A": "B C", "B": "D", "C": "D"},
		},
		{
			name: "select without default waits for a clause",
			body: `
	mark("A")
	select {
	case v := <-ch:
		mark("B")
		_ = v
	case ch <- 1:
		mark("C")
		break
	}
	mark("D")`,
			next: map[string]string{"A": "B C", "B": "D", "C": "D"},
		},
		{
			name: "empty select never returns",
			body: `
	mark("A")
	select {}
	mark("B")`,
			next: map[string]string{"A": ""},
			dead: []string{"B"},
		},
		{
			name: "infinite for is left only through break",
			body: `
	for {
		mark("A")
		if c {
			break
		}
	}
	mark("B")
	for {
		mark("C")
	}
	mark("D")`,
			next: map[string]string{"A": "A B", "B": "C", "C": "C"},
			dead: []string{"D"},
		},
		{
			name: "defer runs in place",
			body: `
	mark("A")
	defer mark("X")
	mark("B")
	return
	mark("C")`,
			next: map[string]string{"A": "B", "B": "ret"},
			dead: []string{"C"},
		},
		{
			name: "panic and os.Exit end the path",
			body: `
	mark("A")
	if c {
		panic("boom")
	}
	mark("B")
	os.Exit(1)
	mark("C")`,
			next: map[string]string{"A": "B", "B": ""},
			dead: []string{"C"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, marks := cfgOf(t, tc.body)
			reach := reachable(g)
			for m, want := range tc.next {
				at, ok := marks[m]
				if !ok {
					t.Fatalf("no marker %q", m)
				}
				if !reach[at.b.Index] {
					t.Errorf("%s is unreachable", m)
				}
				if got := strings.Join(nextMarks(g, at.b, at.i+1), " "); got != want {
					t.Errorf("next(%s) = %q, want %q", m, got, want)
				}
			}
			for _, m := range tc.dead {
				if at, ok := marks[m]; !ok || reach[at.b.Index] {
					t.Errorf("%s should be unreachable", m)
				}
			}
		})
	}
}

// markAt locates a marker node.
type markAt struct {
	b *Block
	i int
}

// cfgOf type-checks body inside a function whose package provides the
// identifiers the cases use, and returns its graph and its markers.
func cfgOf(t *testing.T, body string) (*CFG, map[string]markAt) {
	t.Helper()
	src := "package p\n\nimport \"os\"\n\nvar (\n\t_  = os.Exit\n\tc  bool\n\tn  int\n\txs []int\n\tch chan int\n)\n\n" +
		"func mark(string) {}\n\nfunc f() {" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A hand-built os package keeps the test off the toolchain's export
	// data: os.Exit is all the cases need.
	osPkg := types.NewPackage("os", "os")
	code := types.NewVar(token.NoPos, osPkg, "code", types.Typ[types.Int])
	exit := types.NewSignatureType(nil, nil, nil, types.NewTuple(code), nil, false)
	osPkg.Scope().Insert(types.NewFunc(token.NoPos, osPkg, "Exit", exit))
	osPkg.MarkComplete()
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Defs: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: importerFunc(func(string) (*types.Package, error) { return osPkg, nil })}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	fn := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	g := buildCFG(fn.Body, info)
	marks := make(map[string]markAt)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if m, ok := markOf(n); ok {
				marks[m] = markAt{b, i}
			}
		}
	}
	return g, marks
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// markOf returns the marker a mark("X") statement names.
func markOf(n ast.Node) (string, bool) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "mark" {
		return "", false
	}
	m, err := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
	return m, err == nil
}

// reachable marks the blocks a path from the entry reaches.
func reachable(g *CFG) []bool {
	seen := make([]bool, len(g.Blocks))
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(g.Blocks[0])
	return seen
}

// nextMarks lists, sorted, what the paths from node i of b reach first:
// a marker, "ret", or "end".
func nextMarks(g *CFG, b *Block, i int) []string {
	found := map[string]bool{}
	seen := map[*Block]bool{}
	var walk func(b *Block, i int)
	walk = func(b *Block, i int) {
		for ; i < len(b.Nodes); i++ {
			if m, ok := markOf(b.Nodes[i]); ok {
				found[m] = true
				return
			}
			if _, ok := b.Nodes[i].(*ast.ReturnStmt); ok {
				found["ret"] = true
				return
			}
		}
		if b == g.End {
			found["end"] = true
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				walk(s, 0)
			}
		}
	}
	walk(b, i)
	var out []string
	for m := range found {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}
