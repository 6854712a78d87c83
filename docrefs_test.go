package senss

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents that tell a reader what to run. CHANGES.md
// and ROADMAP.md are history and may name retired commands.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", ".claude/skills/verify/SKILL.md"}

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
