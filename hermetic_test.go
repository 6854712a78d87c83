package senss

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// hostDirs are the top-level host directories a test must never name: a
// test that reads or writes there depends on the machine it runs on.
// Tests use t.TempDir() or module-relative paths instead.
var hostDirs = []string{"tmp", "root", "home", "var", "etc", "opt"}

// isHostPath reports whether s is an absolute path under one of hostDirs.
// HTTP routes such as /v1/sessions are not host paths.
func isHostPath(s string) bool {
	for _, d := range hostDirs {
		if s == "/"+d || strings.HasPrefix(s, "/"+d+"/") {
			return true
		}
	}
	return false
}

func TestIsHostPath(t *testing.T) {
	for _, d := range hostDirs {
		for _, s := range []string{"/" + d, "/" + d + "/", "/" + d + "/probe/x.go"} {
			if !isHostPath(s) {
				t.Errorf("isHostPath(%q) = false", s)
			}
		}
		for _, s := range []string{d, d + "/x", "/" + d + "x", "./" + d} {
			if isHostPath(s) {
				t.Errorf("isHostPath(%q) = true", s)
			}
		}
	}
	for _, s := range []string{"/v1/sessions", "/v1/server", "/healthz", "testdata/golden_cycles.json", ""} {
		if isHostPath(s) {
			t.Errorf("isHostPath(%q) = true", s)
		}
	}
}

// TestTestsAreHermetic parses every _test.go file in the module and fails
// on any string literal that is an absolute host path, so the suite runs
// the same in a clean checkout as on the machine that wrote it.
func TestTestsAreHermetic(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Dot and underscore directories are outside the module
			// (the go tool ignores them; _perfbench is its own module).
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && isHostPath(s) {
				t.Errorf("%s: absolute host path %s; use t.TempDir() or a module-relative path", fset.Position(lit.Pos()), lit.Value)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d test files; is the test running from the module root?", files)
	}
}
