package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// nameListHas reports whether the comma-split analyzer list names a.
func nameListHas(names []string, a string) bool {
	for _, n := range names {
		if n == a {
			return true
		}
	}
	return false
}

// Suppression directives.
//
//	//senss-lint:ignore <analyzer>[,<analyzer>...] <reason>
//	//senss-lint:file-ignore <analyzer>[,<analyzer>...] <reason>
//
// An ignore directive covers its own line and the next line; when it sits
// in (or immediately above) the doc comment of a top-level declaration it
// covers the whole declaration, so a single audited waiver can cover every
// return path of a deliberately zero-cost function. The analyzer list may
// be "all". The reason is mandatory: a waiver without a written
// justification is itself reported as a finding, a waiver naming an
// analyzer that does not exist is a finding (it silently protects
// nothing), and a taintflow waiver must carry a written reason because it
// locally disables the secret-flow guarantee.
//
// A third directive form,
//
//	//senss-lint:secret
//
// is not a suppression at all: placed on a struct field it marks the field
// as a taint origin for the taintflow analyzer (see taintflow.go), so it
// is accepted here without complaint. Likewise //senss-lint:hotpath (bare)
// and //senss-lint:coldpath <reason> annotate functions for the hotpath
// analyzer (see hotpath.go); coldpath waives the allocation discipline for
// a whole function, so its written reason is mandatory and enforced here.
//
// gofmt does not treat these lines as Go directives (the hyphen in
// "senss-lint" fails the //name:args form), so it rewrites one in a doc
// comment as "// senss-lint:...". Every reader takes the directive from
// commentText, which drops the space, so both spellings mean the same.
const directivePrefix = "senss-lint:"

// commentText returns a comment's text without its markers and without
// the surrounding space.
func commentText(c *ast.Comment) string {
	text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
	return strings.TrimSpace(strings.TrimSuffix(text, "*/"))
}

type supEntry struct {
	analyzers []string
	file      string
	from, to  int // line range, inclusive; 0,maxInt for file-wide
}

func (e *supEntry) covers(d Diagnostic) bool {
	if d.Pos.Filename != e.file || d.Pos.Line < e.from || d.Pos.Line > e.to {
		return false
	}
	for _, a := range e.analyzers {
		if a == "all" || a == d.Analyzer {
			return true
		}
	}
	return false
}

type suppressions struct {
	entries  []supEntry
	problems []Diagnostic
}

func (s *suppressions) suppresses(d Diagnostic) bool {
	if d.Analyzer == "lintdirective" {
		return false
	}
	for i := range s.entries {
		if s.entries[i].covers(d) {
			return true
		}
	}
	return false
}

// collectSuppressions scans every comment of the package for directives.
// known is the set of analyzer names a waiver may legitimately reference;
// naming anything else is reported, since such a waiver suppresses nothing
// today and silently rots when analyzers are renamed.
func collectSuppressions(pkg *Package, known map[string]bool) *suppressions {
	s := &suppressions{}
	for _, f := range pkg.Files {
		// declSpan maps a directive line to the span of the top-level
		// declaration it documents.
		declSpan := make(map[int][2]int)
		for _, decl := range f.Decls {
			start := pkg.Fset.Position(decl.Pos()).Line
			end := pkg.Fset.Position(decl.End()).Line
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc != nil {
				for l := pkg.Fset.Position(doc.Pos()).Line; l <= pkg.Fset.Position(doc.End()).Line; l++ {
					declSpan[l] = [2]int{start, end}
				}
			}
			declSpan[start] = [2]int{start, end}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := commentText(c)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				body := strings.TrimPrefix(text, directivePrefix)
				// Anything after a nested "//" is commentary on the
				// directive, not part of it.
				if i := strings.Index(body, "//"); i >= 0 {
					body = body[:i]
				}
				fields := strings.Fields(body)
				if len(fields) == 1 && fields[0] == "secret" {
					// A taint-origin annotation, consumed by taintflow.
					continue
				}
				if len(fields) > 0 && fields[0] == "hotpath" {
					// A hot-path annotation, consumed by the hotpath
					// analyzer; trailing words are commentary.
					continue
				}
				if len(fields) > 0 && fields[0] == "coldpath" {
					if len(fields) < 2 {
						// coldpath exempts a whole function from the
						// allocation discipline: the reason is mandatory.
						s.problems = append(s.problems, Diagnostic{
							Analyzer: "lintdirective", Pos: pos,
							Message: "senss-lint:coldpath needs a written reason (why is this function off the hot path?)",
						})
					}
					continue
				}
				if len(fields) > 0 && fields[0] == "guardedby" {
					// A guarded-field annotation, consumed by the lockguard
					// analyzer; the mutex field name is mandatory.
					if len(fields) < 2 {
						s.problems = append(s.problems, Diagnostic{
							Analyzer: "lintdirective", Pos: pos,
							Message: "senss-lint:guardedby needs the name of the mutex field that guards this field",
						})
					}
					continue
				}
				if len(fields) == 0 || (fields[0] != "ignore" && fields[0] != "file-ignore") {
					s.problems = append(s.problems, Diagnostic{
						Analyzer: "lintdirective", Pos: pos,
						Message: "malformed senss-lint directive: want ignore, file-ignore, secret, hotpath, coldpath, or guardedby",
					})
					continue
				}
				if len(fields) < 2 {
					// Bare "//senss-lint:ignore" with no analyzer list:
					// report it rather than indexing past the verb.
					s.problems = append(s.problems, Diagnostic{
						Analyzer: "lintdirective", Pos: pos,
						Message: "senss-lint:" + fields[0] + " needs an analyzer list and a written reason",
					})
					continue
				}
				names := strings.Split(fields[1], ",")
				if len(fields) < 3 {
					msg := "senss-lint:" + fields[0] + " needs an analyzer list and a written reason"
					if nameListHas(names, "taintflow") {
						msg = "senss-lint:" + fields[0] + " of taintflow waives the secret-flow guarantee and must carry a written reason"
					}
					s.problems = append(s.problems, Diagnostic{
						Analyzer: "lintdirective", Pos: pos,
						Message: msg,
					})
					continue
				}
				bad := false
				for _, n := range names {
					if n != "all" && !known[n] {
						s.problems = append(s.problems, Diagnostic{
							Analyzer: "lintdirective", Pos: pos,
							Message: fmt.Sprintf("senss-lint:%s references unknown analyzer %q", fields[0], n),
						})
						bad = true
					}
				}
				if bad {
					continue
				}
				entry := supEntry{
					analyzers: names,
					file:      pos.Filename,
				}
				if fields[0] == "file-ignore" {
					entry.from, entry.to = 1, int(^uint(0)>>1)
				} else if span, ok := declSpan[pos.Line]; ok {
					entry.from, entry.to = span[0], span[1]
				} else {
					entry.from, entry.to = pos.Line, pos.Line+1
				}
				s.entries = append(s.entries, entry)
			}
		}
	}
	return s
}
