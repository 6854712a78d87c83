package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed, type-checked package of the module.
type Package struct {
	ImportPath string
	RelPath    string // path relative to the module root ("" for the root package)
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects non-fatal type-checking problems. Analysis
	// proceeds with partial type information.
	TypeErrors []error
}

// Loader parses and type-checks every package of a module without any
// go/packages dependency: module-local imports are resolved recursively by
// directory, standard-library imports from the compiler's export data.
// `go list -export -deps` locates (and, on a cold build cache, compiles)
// that export data once per module load, and once more for each fixture
// directory that imports a package the loader has not seen; it needs no
// network, since the standard library is part of the toolchain.
type Loader struct {
	Root       string // module root directory (contains go.mod)
	ModulePath string
	Fset       *token.FileSet

	std     types.ImporterFrom
	exports map[string]string      // export data file by import path
	parsed  map[string][]*ast.File // by directory, parsed ahead of checking
	pkgs    map[string]*Package    // by import path
	busy    map[string]bool        // cycle guard
}

// NewLoader prepares a loader for the module rooted at dir (the directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	l := &Loader{
		Root:       root,
		ModulePath: modPath,
		Fset:       token.NewFileSet(),
		exports:    make(map[string]string),
		parsed:     make(map[string][]*ast.File),
		pkgs:       make(map[string]*Package),
		busy:       make(map[string]bool),
	}
	std, ok := importer.ForCompiler(l.Fset, "gc", l.openExport).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: gc importer does not support ImportFrom")
	}
	l.std = std
	return l, nil
}

// openExport is the gc importer's lookup: it opens the export data that
// fetchExports recorded for path.
func (l *Loader) openExport(path string) (io.ReadCloser, error) {
	file := l.exports[path]
	if file == "" {
		return nil, fmt.Errorf("lint: no export data for %s", path)
	}
	return os.Open(file)
}

// isLocal reports whether path names a package of the module.
func (l *Loader) isLocal(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// fetchExports records the export data of every non-module import of
// files, and of their dependencies, with one `go list` run for the
// imports not recorded yet. A package go list cannot build gets no entry,
// and importing it becomes a type error like any other.
func (l *Loader) fetchExports(files []*ast.File) error {
	var need []string
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path == "unsafe" || path == "C" || l.isLocal(path) {
				continue
			}
			if _, ok := l.exports[path]; !ok {
				l.exports[path] = "" // queued; filled in below
				need = append(need, path)
			}
		}
	}
	if len(need) == 0 {
		return nil
	}
	sort.Strings(need)
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export"}, need...)...)
	cmd.Dir = l.Root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export: %w\n%s", err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// LoadModule discovers and loads every package under the module root,
// skipping testdata and hidden directories. Packages are returned in
// deterministic (import path) order.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// Parse everything first so one go list run covers the module's
	// standard-library imports.
	var all []*ast.File
	for _, dir := range dirs {
		files, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		l.parsed[dir] = files
		all = append(all, files...)
	}
	if err := l.fetchExports(all); err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.ModulePath
		if rel != "." {
			importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(importPath)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// load parses and type-checks the package at importPath (module-local),
// memoized.
func (l *Loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.busy[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.busy[importPath] = true
	defer delete(l.busy, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	pkg, err := l.loadDir(dir, importPath, rel)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of a single directory.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	return files, nil
}

// loadDir type-checks a single directory as one package, parsing it
// unless LoadModule already has.
func (l *Loader) loadDir(dir, importPath, relPath string) (*Package, error) {
	files, ok := l.parsed[dir]
	if !ok {
		var err error
		if files, err = l.parseDir(dir); err != nil {
			return nil, err
		}
	}
	delete(l.parsed, dir)
	if err := l.fetchExports(files); err != nil {
		return nil, err
	}
	pkg := &Package{
		ImportPath: importPath,
		RelPath:    relPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: &moduleImporter{l},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// The returned error duplicates the first entry of TypeErrors; analysis
	// is best-effort over whatever type information survived.
	//
	//senss-lint:ignore droppederr the Error hook above already captured every type error; Check's return duplicates the first one
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// LoadDir loads a standalone directory (the fixture harness) whose imports
// are standard-library only.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDir(abs, filepath.Base(abs), filepath.Base(abs))
}

// moduleImporter resolves module-local imports through the loader and
// everything else through the export-data importer.
type moduleImporter struct{ l *Loader }

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if m.l.isLocal(path) {
		pkg, err := m.l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return m.l.std.ImportFrom(path, dir, mode)
}
