package senss

import (
	"strings"
	"testing"
)

// TestHarnessAllFigures exercises every figure generator with a reduced
// workload set, checking table structure (titles, row counts, averages).
func TestHarnessAllFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps in short mode")
	}
	h := NewHarness(SizeTest)
	h.Workloads = []string{"falseshare", "lockcontend"}

	cases := []struct {
		fig    string
		tables int
		title  string
	}{
		{"6", 2, "Figure 6"},
		{"7", 2, "Figure 7"},
		{"8", 2, "Figure 8"},
		{"9", 2, "Figure 9"},
		{"10", 2, "Figure 10"},
		{"11", 1, "Figure 11"},
	}
	for _, c := range cases {
		fig, err := h.Figure(c.fig)
		if err != nil {
			t.Fatalf("figure %s: %v", c.fig, err)
		}
		tables, err := fig.Tables()
		if err != nil {
			t.Fatalf("figure %s: %v", c.fig, err)
		}
		if len(tables) != c.tables {
			t.Fatalf("figure %s: %d tables, want %d", c.fig, len(tables), c.tables)
		}
		for _, tab := range tables {
			if !strings.Contains(tab.Title, c.title) {
				t.Errorf("figure %s: title %q", c.fig, tab.Title)
			}
			if len(tab.Rows) == 0 {
				t.Errorf("figure %s: empty table", c.fig)
			}
			out := tab.Render()
			if len(out) == 0 {
				t.Errorf("figure %s: empty render", c.fig)
			}
		}
		// Figures over the workload list carry an average row.
		if c.fig != "11" {
			last := tables[0].Rows[len(tables[0].Rows)-1]
			if last[0] != "average" {
				t.Errorf("figure %s: last row %q, want average", c.fig, last[0])
			}
		}
	}
}

// TestHarnessDetectionLatency covers the E1 experiment with few seeds.
func TestHarnessDetectionLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("detection sweep in short mode")
	}
	h := NewHarness(SizeTest)
	tables, err := h.DetectionLatency(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 4 {
		t.Fatalf("unexpected table shape: %+v", tables)
	}
	for _, row := range tables[0].Rows {
		if !strings.HasSuffix(row[5], "/2") {
			t.Errorf("row %v: detection column malformed", row)
		}
		if row[5] != "2/2" {
			t.Errorf("interval %s: not all attacks detected (%s)", row[0], row[5])
		}
	}
}

// TestHarnessBaseCaching: the per-(workload, machine) baseline runs must
// be computed once and reused across variants.
func TestHarnessBaseCaching(t *testing.T) {
	h := NewHarness(SizeTest)
	h.Workloads = []string{"falseshare"}
	cfg := h.senssConfig(4, true)
	b1, _, err := h.pair("falseshare", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Security.Senss.AuthInterval = 1
	b2, _, err := h.pair("falseshare", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Cycles != b2.Cycles {
		t.Error("baseline re-run differed — cache key broken")
	}
}
