package senss

import (
	"encoding/json"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"senss/internal/lint"
)

// docFiles are the documents that tell a reader what to run. CHANGES.md
// and ROADMAP.md are history and may name retired commands.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", ".claude/skills/verify/SKILL.md"}

// identDocs are the documents that describe the code; every identifier
// they name must exist.
var identDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// cmdRef matches cmd/<name> and ./cmd/<name>.
var cmdRef = regexp.MustCompile(`\bcmd/([\w-]+)`)

// TestDocsNameExistingCommands fails when a document names a cmd/<name>
// that is not a directory of the module, such as a retired binary.
func TestDocsNameExistingCommands(t *testing.T) {
	refs := 0
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				refs++
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names %s, which is not a command directory", doc, i+1, m[0])
				}
			}
		}
	}
	if refs == 0 {
		t.Error("no cmd/<name> reference found in any document")
	}
}

// identRef matches the dotted identifier chain a backticked span opens
// with: `coherence.Node.Load`, `Port.SpinUntil(addr, want, backoff)`.
var identRef = regexp.MustCompile("`([A-Za-z_]\\w*(?:\\.[A-Za-z_]\\w*)+)")

// testFunc matches a top-level function declaration in a test file.
var testFunc = regexp.MustCompile(`(?m)^func (\w+)\(`)

// moduleIdents indexes the module by the names a document uses: packages
// by package name (with the packages they import, so that a module
// package named like a standard one also resolves the standard one's
// names), package-level types by type name, the functions declared in
// each package's test files, and the benchmark's metric names, which
// read like package members but are not Go.
type moduleIdents struct {
	pkgs    map[string][]*types.Package // every package of that name
	module  map[string]bool             // a module package has that name
	types   map[string][]*types.TypeName
	tests   map[string]map[string]bool // package name -> test-file functions
	metrics map[string]bool
}

func loadModuleIdents(t *testing.T) *moduleIdents {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	idx := &moduleIdents{
		pkgs:    map[string][]*types.Package{},
		module:  map[string]bool{},
		types:   map[string][]*types.TypeName{},
		tests:   map[string]map[string]bool{},
		metrics: map[string]bool{},
	}
	seen := map[*types.Package]bool{}
	add := func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			idx.pkgs[p.Name()] = append(idx.pkgs[p.Name()], p)
		}
	}
	for _, lp := range loaded {
		p := lp.Types
		if p.Name() == "main" {
			continue
		}
		add(p)
		idx.module[p.Name()] = true
		tests, err := filepath.Glob(filepath.Join(lp.Dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range tests {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if idx.tests[p.Name()] == nil {
				idx.tests[p.Name()] = map[string]bool{}
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				idx.tests[p.Name()][string(m[1])] = true
			}
		}
		for _, imp := range p.Imports() {
			add(imp)
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				idx.types[name] = append(idx.types[name], tn)
			}
		}
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		idx.metrics[m.Name] = true
	}
	return idx
}

// member reports whether name is a field or method of the type tn names.
func member(tn *types.TypeName, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name)
	return obj != nil
}

// resolves reports whether the chain x.y[.z] names something that exists,
// and whether it was checked at all: x must name a module package or a
// module-declared type. In a package, y is a package-level identifier or
// a field or method of one of its types, and z a member of the type y;
// on a type, y is one of its fields or methods.
func (idx *moduleIdents) resolves(parts []string) (ok, checked bool) {
	x, y := parts[0], parts[1]
	if idx.metrics[strings.Join(parts, ".")] {
		return true, false
	}
	if idx.module[x] {
		if idx.tests[x][y] {
			return true, true
		}
		for _, p := range idx.pkgs[x] {
			obj := p.Scope().Lookup(y)
			if tn, isType := obj.(*types.TypeName); isType && len(parts) > 2 {
				if member(tn, parts[2]) {
					return true, true
				}
				continue
			}
			if obj != nil {
				return true, true
			}
			for _, name := range p.Scope().Names() {
				if tn, isType := p.Scope().Lookup(name).(*types.TypeName); isType && member(tn, y) {
					return true, true
				}
			}
		}
		checked = true
	}
	if tns := idx.types[x]; len(tns) > 0 {
		for _, tn := range tns {
			if member(tn, y) {
				return true, true
			}
		}
		checked = true
	}
	return false, checked
}

// staleIdents lists the backticked identifier chains in text that name
// nothing in the module, as "doc:line: chain".
func (idx *moduleIdents) staleIdents(doc, text string) (stale []string, checked int) {
	for i, line := range strings.Split(text, "\n") {
		for _, m := range identRef.FindAllStringSubmatch(line, -1) {
			ok, c := idx.resolves(strings.Split(m[1], "."))
			if !c {
				continue
			}
			checked++
			if !ok {
				stale = append(stale, fmt.Sprintf("%s:%d: %s", doc, i+1, m[1]))
			}
		}
	}
	return stale, checked
}

// TestDocsNameExistingIdentifiers fails when README, DESIGN or
// EXPERIMENTS names, in backticks, a package member, method or field
// that the module no longer has — the trace a deletion leaves in prose.
// Standard-library names such as `errors.Is` are not checked.
func TestDocsNameExistingIdentifiers(t *testing.T) {
	idx := loadModuleIdents(t)
	planted := "The spin probe asks `coherence.Node.PeekHit`, then `Node.Load`.\n" +
		"It retires through `Node.TakeHit(h)` and `sim.Proc.SettleThen`; `errors.Is` is stdlib.\n"
	stale, _ := idx.staleIdents("planted.md", planted)
	want := []string{"planted.md:1: coherence.Node.PeekHit", "planted.md:2: Node.TakeHit"}
	if strings.Join(stale, "\n") != strings.Join(want, "\n") {
		t.Fatalf("planted stale names: got %q, want %q", stale, want)
	}
	total := 0
	for _, doc := range identDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		stale, checked := idx.staleIdents(doc, string(raw))
		total += checked
		for _, s := range stale {
			t.Errorf("%s names nothing in the module", s)
		}
	}
	if total == 0 {
		t.Error("no module identifier reference found in any document")
	}
}
