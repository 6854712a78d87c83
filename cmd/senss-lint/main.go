// Command senss-lint runs the repository's domain-specific static-analysis
// suite (package internal/lint) over the module: determinism, banned
// nondeterminism primitives, secret hygiene, cycle accounting, error
// discipline, secret taint flow, hot-path allocation discipline, and
// lock discipline (guarded fields, unlock paths, lock ordering,
// goroutine/blocking hygiene).
//
// Usage:
//
//	senss-lint [-json] [-analyzer name[,name...]] [-list] [patterns]
//
// Patterns are module-relative package paths; "./..." (the default) means
// every package, "./internal/bus" one package, "./internal/..." a subtree.
// -analyzer restricts the run to the named analyzers (e.g. "taintflow");
// naming an unknown analyzer is a usage error. Exit status: 0 clean, 1
// findings, 2 usage or load failure.
//
// With -json the driver emits a stable envelope whose finding paths are
// module-relative:
//
//	{"schema": "senss-lint/2", "analyzers": [...], "findings": [...]}
//
// Deliberate exceptions are waived in source with
//
//	//senss-lint:ignore <analyzer> <reason>
//
// directives; a waiver without a reason is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"senss/internal/lint"
)

// envelope is the -json output schema.
type envelope struct {
	Schema    string            `json:"schema"`
	Analyzers []string          `json:"analyzers"`
	Findings  []lint.Diagnostic `json:"findings"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a JSON envelope with the analyzer set and findings")
	analyzer := flag.String("analyzer", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	analyzers := lint.Registry()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *analyzer != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*analyzer, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "senss-lint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
		if len(analyzers) == 0 {
			fmt.Fprintln(os.Stderr, "senss-lint: -analyzer names no analyzers")
			os.Exit(2)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "senss-lint:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "senss-lint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "senss-lint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var selected []*lint.Package
	for _, pkg := range pkgs {
		if matchesAny(pkg.RelPath, patterns) {
			selected = append(selected, pkg)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "senss-lint: no packages match", patterns)
		os.Exit(2)
	}

	for _, pkg := range selected {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "senss-lint: warning: %s: type checking: %v\n", pkg.ImportPath, terr)
		}
	}

	diags := lint.RunAnalyzers(analyzers, selected)
	if *jsonOut {
		var names []string
		for _, a := range analyzers {
			names = append(names, a.Name)
		}
		for i := range diags {
			diags[i].Pos.Filename = relToRoot(root, diags[i].Pos.Filename)
		}
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		env := envelope{Schema: "senss-lint/2", Analyzers: names, Findings: diags}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(env); err != nil {
			fmt.Fprintln(os.Stderr, "senss-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = relToRoot(root, d.Pos.Filename)
			fmt.Println(d)
		}
		fmt.Printf("senss-lint: %d package(s), %d finding(s)\n", len(selected), len(diags))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// matchesAny implements the ./... pattern subset the driver supports.
func matchesAny(relPath string, patterns []string) bool {
	for _, p := range patterns {
		p = strings.TrimPrefix(p, "./")
		if p == "..." || p == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(p, "/..."); ok {
			if relPath == sub || strings.HasPrefix(relPath, sub+"/") {
				return true
			}
			continue
		}
		if relPath == p {
			return true
		}
	}
	return false
}

// relToRoot shortens absolute diagnostic paths for terminal output.
func relToRoot(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
