package lint_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"senss/internal/lint"
)

// newLoader builds a loader rooted at the module (two levels up from this
// package's directory).
func newLoader(t *testing.T) *lint.Loader {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// module is the whole module, loaded once and shared by the tests that
// analyze it (LoadModule type-checks every package of the module, the
// bulk of this package's test time).
var module struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

// loadModule returns the shared module load.
func loadModule(t *testing.T) []*lint.Package {
	t.Helper()
	module.once.Do(func() {
		var root string
		var l *lint.Loader
		if root, module.err = filepath.Abs("../.."); module.err != nil {
			return
		}
		if l, module.err = lint.NewLoader(root); module.err == nil {
			module.pkgs, module.err = l.LoadModule()
		}
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs
}

// fixtures is the loader TestAnalyzerFixtures and TestFindingsGolden
// share: both load the same fixture packages, and one loader locates
// and imports the standard library they import only once.
var fixtures struct {
	once   sync.Once
	loader *lint.Loader
}

func fixtureLoader(t *testing.T) *lint.Loader {
	t.Helper()
	fixtures.once.Do(func() { fixtures.loader = newLoader(t) })
	if fixtures.loader == nil {
		t.Fatal("fixture loader failed to initialize")
	}
	return fixtures.loader
}

// wantRe matches the two expected-diagnostic golden forms:
//
//	// want "substring"
//	// want `substring`
var wantRe = regexp.MustCompile("want (?:\"([^\"]+)\"|`([^`]+)`)")

// expectation is one // want comment, consumed as diagnostics match it.
type expectation struct {
	file     string
	line     int
	substr   string
	consumed bool
}

// collectWants scans every comment of the fixture package.
func collectWants(pkg *lint.Package) []*expectation {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					substr := m[1]
					if substr == "" {
						substr = m[2]
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, substr: substr})
				}
			}
		}
	}
	return out
}

// runFixture loads testdata/<dir>, runs the analyzer with its package
// scope lifted, and matches diagnostics against the want comments.
func runFixture(t *testing.T, loader *lint.Loader, a *lint.Analyzer, dir string) {
	t.Helper()
	pkg, err := loader.LoadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", dir, terr)
	}
	a.Scope = nil // fixtures live outside the analyzer's default scope
	diags := lint.RunAnalyzers([]*lint.Analyzer{a}, []*lint.Package{pkg})

	wants := collectWants(pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	var matched int
outer:
	for _, d := range diags {
		for _, w := range wants {
			if !w.consumed && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.consumed = true
				matched++
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.consumed {
			t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	} else if matched == 0 {
		t.Errorf("fixture %s matched no diagnostics", dir)
	}
}

// fixtureCase pairs a testdata package with the analyzer it exercises.
type fixtureCase struct {
	dir      string
	analyzer *lint.Analyzer
}

// fixtureCases lists every seeded-violation fixture. The analyzers are
// built fresh on each call because runFixture lifts their scope.
func fixtureCases() []fixtureCase {
	return []fixtureCase{
		{"determ", lint.AnalyzerDeterminism()},
		{"nondet", lint.AnalyzerNondeterm()},
		{"orchfix", lint.AnalyzerNondeterm()},
		{"secrets", lint.AnalyzerSecrets()},
		{"cycle", lint.AnalyzerCycleAcct()},
		{"dropped", lint.AnalyzerDroppedErr()},
		{"suppress", lint.AnalyzerDroppedErr()},
		{"taint", lint.AnalyzerTaintflow()},
		{"hotpath", lint.AnalyzerHotpath()},
		{"lockguard", lint.AnalyzerLockguard()},
	}
}

// TestAnalyzerFixtures drives every analyzer over its seeded-violation
// fixture package (the expected-diagnostic golden format).
func TestAnalyzerFixtures(t *testing.T) {
	loader := fixtureLoader(t)
	for _, tc := range fixtureCases() {
		t.Run(tc.dir, func(t *testing.T) {
			runFixture(t, loader, tc.analyzer, tc.dir)
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/findings.golden")

// TestFindingsGolden pins every fixture finding byte for byte. The want
// comments above match message substrings, so they cannot tell a
// reworded, reordered, duplicated, or re-positioned finding from the
// original; this golden can. Paths are module-relative, so the file is
// the same on any checkout. Regenerate with
// `go test ./internal/lint -run TestFindingsGolden -update`.
func TestFindingsGolden(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader := fixtureLoader(t)
	var buf strings.Builder
	for _, tc := range fixtureCases() {
		pkg, err := loader.LoadDir(filepath.Join("testdata", tc.dir))
		if err != nil {
			t.Fatal(err)
		}
		tc.analyzer.Scope = nil
		fmt.Fprintf(&buf, "# %s (%s)\n", tc.dir, tc.analyzer.Name)
		for _, d := range lint.RunAnalyzers([]*lint.Analyzer{tc.analyzer}, []*lint.Package{pkg}) {
			rel, err := filepath.Rel(root, d.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			d.Pos.Filename = filepath.ToSlash(rel)
			fmt.Fprintln(&buf, d)
		}
	}
	const golden = "testdata/findings.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("fixture findings diverged from %s — if intentional, rerun with -update\ngot:\n%s\nwant:\n%s",
			golden, buf.String(), want)
	}
}

// TestRegistryNamesUnique guards the ignore-directive namespace, and
// checks that every analyzer with a fixture is registered, so the
// driver and TestModuleClean run what the fixtures test.
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.Registry() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, tc := range fixtureCases() {
		if !seen[tc.analyzer.Name] {
			t.Errorf("analyzer %q (fixture %s) is not in Registry()", tc.analyzer.Name, tc.dir)
		}
	}
}

// TestModuleClean runs the full registry over the real module and demands
// zero findings — the same gate cmd/senss-lint enforces, kept green by the
// ordinary test suite.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs := loadModule(t)
	var checked int
	for _, pkg := range pkgs {
		if strings.Contains(pkg.RelPath, "lint/testdata") {
			continue
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("loaded only %d packages; loader lost the module", checked)
	}
	diags := lint.RunAnalyzers(lint.Registry(), pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("senss-lint found %d issue(s); the tree must stay lint-clean", len(diags))
	}
}

// TestModuleLockOrder pins the module's annotated lock-acquisition graph
// against a checked-in golden. The sanctioned graph has every guard class
// and no edges at all — the serving and orchestration layers never nest
// annotated locks — so any future nesting (a deadlock precursor) fails
// this test and must be reviewed into the golden deliberately.
func TestModuleLockOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	classes, edges := lint.LockOrderGraph(loadModule(t))
	got := struct {
		Classes []string            `json:"classes"`
		Edges   map[string][]string `json:"edges"`
	}{Classes: classes, Edges: edges}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	golden := filepath.Join("testdata", "lockorder_module.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(want) {
		t.Errorf("module lock-order graph drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, gotJSON, want)
	}
}

// writePackage writes one Go source file into a fresh package directory
// and loads it.
func writePackage(t *testing.T, name, src string) *lint.Package {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := newLoader(t).LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("%s does not type-check: %v", name, terr)
	}
	return pkg
}

// TestLockOrderDeepCallChain checks that lock-class acquisition reaches
// a caller through a call chain declared caller-first, the order that
// needs one propagation round per call edge.
func TestLockOrderDeepCallChain(t *testing.T) {
	pkg := writePackage(t, "chain", `package chain

import "sync"

type A struct {
	mu sync.Mutex
	//senss-lint:guardedby mu
	n int
}

type B struct {
	mu sync.Mutex
	//senss-lint:guardedby mu
	n int
}

func outer(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	middle(b)
}

func middle(b *B) { hop1(b) }

func hop1(b *B) { hop2(b) }

func hop2(b *B) { hop3(b) }

func hop3(b *B) { deepest(b) }

func deepest(b *B) {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}
`)
	classes, edges := lint.LockOrderGraph([]*lint.Package{pkg})
	got := fmt.Sprint(classes, edges)
	if want := "[chain.A.mu chain.B.mu] map[chain.A.mu:[chain.B.mu]]"; got != want {
		t.Errorf("lock-order graph = %s, want %s", got, want)
	}
}

// TestRunAnalyzersOrderAndDedupe pins RunAnalyzers' output contract: one
// total order (file, line, column, analyzer, message) and no repeated
// finding, whatever order the analyzers report in.
func TestRunAnalyzersOrderAndDedupe(t *testing.T) {
	pkg := writePackage(t, "probe", "package probe\n")
	probe := &lint.Analyzer{Name: "probe", Doc: "test", Run: func(p *lint.Pass) {
		pos := p.Pkg.Files[0].Package
		for _, msg := range []string{"b", "a", "b", "a"} {
			p.Reportf(pos, "%s", msg)
		}
	}}
	var got []string
	for _, d := range lint.RunAnalyzers([]*lint.Analyzer{probe}, []*lint.Package{pkg}) {
		got = append(got, d.Message)
	}
	if fmt.Sprint(got) != "[a b]" {
		t.Errorf("messages = %v, want [a b]", got)
	}
}

// TestLockguardPlantedUnlock is the planted-regression gate: the
// lockserve fixture (a stdlib-only mirror of serve's lock-striped table)
// is clean as checked in, and removing the one marked Unlock from
// Table.Delete must produce the missing-release finding.
func TestLockguardPlantedUnlock(t *testing.T) {
	loader := newLoader(t)
	clean, err := loader.LoadDir(filepath.Join("testdata", "lockserve"))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range clean.TypeErrors {
		t.Errorf("lockserve fixture does not type-check: %v", terr)
	}
	a := lint.AnalyzerLockguard()
	a.Scope = nil
	if diags := lint.RunAnalyzers([]*lint.Analyzer{a}, []*lint.Package{clean}); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("clean lockserve fixture: %s", d)
		}
		t.Fatal("lockserve fixture must be lint-clean before mutation")
	}

	src, err := os.ReadFile(filepath.Join("testdata", "lockserve", "table.go"))
	if err != nil {
		t.Fatal(err)
	}
	marker := "s.mu.Unlock() // planted-unlock"
	if !strings.Contains(string(src), marker) {
		t.Fatalf("lockserve fixture lost its planted-unlock marker")
	}
	mutated := strings.Replace(string(src), marker, "// planted-unlock removed", 1)
	dir := filepath.Join(t.TempDir(), "lockserve")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "table.go"), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := lint.AnalyzerLockguard()
	b.Scope = nil
	diags := lint.RunAnalyzers([]*lint.Analyzer{b}, []*lint.Package{pkg})
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "not released on this return path") {
			found = true
		}
	}
	if !found {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Error("removing the Unlock from Table.Delete was not caught")
	}
}

// TestNoVariableTimeCompareHelpers asserts the remediation of this
// analyzer's findings sticks at the source level: the packages that
// handle MACs, tags, and keys contain no bytes.Equal / reflect.DeepEqual
// calls and no local byte-loop equality helpers — every comparison of
// secret-adjacent material goes through internal/crypto/ct.Equal. The
// semantic version of this guarantee (no ==/!= on tainted material
// either) is enforced by taintflow via TestModuleClean; this textual
// check catches a helper being reintroduced in a form the taint engine
// might not see as secret.
func TestNoVariableTimeCompareHelpers(t *testing.T) {
	banned := []string{"bytes.Equal(", "reflect.DeepEqual(", "func bytesEqual(", "func equalBytes("}
	for _, dir := range []string{"core", "integrity", "memsec", "machine", "oracle", "crypto"} {
		root, err := filepath.Abs(filepath.Join("../..", "internal", dir))
		if err != nil {
			t.Fatal(err)
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, b := range banned {
				if strings.Contains(string(src), b) {
					t.Errorf("%s contains %q; compare secret material with ct.Equal", path, strings.TrimSuffix(b, "("))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiagnosticString pins the report format the driver prints.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "determinism", Message: "boom"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	got := d.String()
	want := "a/b.go:3:7: [determinism] boom"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if fmt.Sprint(d) != want {
		t.Fatalf("Sprint mismatch")
	}
}
