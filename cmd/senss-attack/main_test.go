package main

import (
	"bytes"
	"os"
	"testing"

	"senss/internal/attack"
)

// TestGoldenStdout pins the full stdout of `senss-attack` (default seed,
// all scenarios) to a golden file, in the same spirit as the repository's
// golden cycle counts: the attack reports are part of the artifact the
// paper reproduction presents, so any wording or verdict change must be a
// deliberate decision. Regenerate with
// SENSS_UPDATE_GOLDEN=1 go test ./cmd/senss-attack -run TestGoldenStdout.
func TestGoldenStdout(t *testing.T) {
	var buf bytes.Buffer
	if failures := runScenarios(&buf, attack.Scenarios(), 2025, ""); failures != 0 {
		t.Fatalf("%d scenario(s) deviated from the paper's prediction:\n%s", failures, buf.String())
	}

	const golden = "testdata/golden_stdout.txt"
	if os.Getenv("SENSS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stdout diverged from %s — if intentional, rerun with SENSS_UPDATE_GOLDEN=1\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestScenarioFilter: -scenario restricts the run to one named scenario.
func TestScenarioFilter(t *testing.T) {
	scenarios := attack.Scenarios()
	if len(scenarios) < 2 {
		t.Skip("needs at least two scenarios")
	}
	var buf bytes.Buffer
	runScenarios(&buf, scenarios, 2025, scenarios[0].Name)
	if !bytes.Contains(buf.Bytes(), []byte(scenarios[0].Name)) {
		t.Errorf("filtered run missing scenario %q", scenarios[0].Name)
	}
	if bytes.Contains(buf.Bytes(), []byte("=== "+scenarios[1].Name+" ===")) {
		t.Errorf("filtered run included unselected scenario %q", scenarios[1].Name)
	}
}
