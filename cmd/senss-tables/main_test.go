package main

import (
	"bytes"
	"os"
	"testing"

	"senss"
)

// goldenTables is the test-size output of `senss-tables -fig all`
// followed by `-fig scale`.
const goldenTables = "../../testdata/tables.golden"

// TestTablesGolden pins every farm-backed figure table, plus the §7.1
// hardware report, byte for byte. Regenerate deliberately with
// SENSS_UPDATE_GOLDEN=1 go test ./cmd/senss-tables -run TestTablesGolden.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	h := senss.NewHarness(senss.SizeTest)
	var buf bytes.Buffer
	for _, fig := range []string{"all", "scale"} {
		if err := write(&buf, h, fig, false); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
	}
	if os.Getenv("SENSS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenTables, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenTables)
	if err != nil {
		t.Fatalf("missing golden tables (generate with SENSS_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("tables diverged from %s:\ngot:\n%s\nwant:\n%s", goldenTables, buf.Bytes(), want)
	}
}
