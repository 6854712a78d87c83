package farm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"senss/internal/stats"
)

// TestGCTable pins the full GC decision matrix over one directory
// population: which file classes survive a conservative sweep, which
// survive -all, and what the removal count reports.
func TestGCTable(t *testing.T) {
	staleEntry := func(hash string) string {
		data, _ := json.Marshal(entry{Version: "farm-v0/obsolete", Hash: hash})
		return string(data)
	}
	cases := []struct {
		name        string
		all         bool
		debris      map[string]string // extra files written verbatim
		putValid    bool              // also Put one valid entry
		wantRemoved int
		wantKept    []string
		wantGone    []string
	}{
		{
			name: "empty directory is a no-op",
		},
		{
			name: "temp debris always removed",
			debris: map[string]string{
				"deadbeef.json.tmp42": "partial write",
				"other.tmp":           "also partial",
			},
			wantRemoved: 2,
			wantGone:    []string{"deadbeef.json.tmp42", "other.tmp"},
		},
		{
			name: "garbage and stale-version entries removed, valid kept",
			debris: map[string]string{
				"0123456789abcdef0123456789abcdef.json": "not json at all",
				"fedcba9876543210fedcba9876543210.json": staleEntry("fedcba9876543210fedcba9876543210"),
			},
			putValid:    true,
			wantRemoved: 2,
			wantGone: []string{
				"0123456789abcdef0123456789abcdef.json",
				"fedcba9876543210fedcba9876543210.json",
			},
		},
		{
			name: "a leftover manifest is an invalid entry; bystanders survive",
			debris: map[string]string{
				"manifest-fig6-test.json": `{"sweep":"fig6-test"}`,
				"README":                  "not cache data",
			},
			putValid:    true,
			wantRemoved: 1,
			wantKept:    []string{"README"},
			wantGone:    []string{"manifest-fig6-test.json"},
		},
		{
			name: "all removes entries and manifests but not bystanders",
			all:  true,
			debris: map[string]string{
				"manifest-fig6-test.json": `{"sweep":"fig6-test"}`,
				"README":                  "not cache data",
			},
			putValid:    true,
			wantRemoved: 1, // the manifest; the valid entry is counted below
			wantKept:    []string{"README"},
			wantGone:    []string{"manifest-fig6-test.json"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			j := testJob(1)
			if tc.putValid {
				if err := c.Put(j, j.Hash(), stats.Run{Cycles: 1}); err != nil {
					t.Fatal(err)
				}
			}
			for name, data := range tc.debris {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			removed, err := c.GC(tc.all)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.wantRemoved
			if tc.putValid && tc.all {
				want++ // the valid entry goes too
			}
			if removed != want {
				t.Errorf("GC(all=%v) removed %d files, want %d", tc.all, removed, want)
			}
			for _, name := range tc.wantKept {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Errorf("%s should have survived: %v", name, err)
				}
			}
			for _, name := range tc.wantGone {
				if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
					t.Errorf("%s should have been removed", name)
				}
			}
			if tc.putValid {
				fresh, err := NewCache(dir) // bypass the memory layer
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := fresh.Get(j.Hash()); ok == tc.all {
					t.Errorf("valid entry present=%v after GC(all=%v)", ok, tc.all)
				}
			}
		})
	}
}

// TestGCMemoryOnly: with no backing directory, GC touches no files and
// clears the memory layer only under -all.
func TestGCMemoryOnly(t *testing.T) {
	for _, all := range []bool{false, true} {
		c, err := NewCache("")
		if err != nil {
			t.Fatal(err)
		}
		j := testJob(1)
		if err := c.Put(j, j.Hash(), stats.Run{Cycles: 9}); err != nil {
			t.Fatal(err)
		}
		removed, err := c.GC(all)
		if err != nil {
			t.Fatal(err)
		}
		wantRemoved := 0
		if all {
			wantRemoved = 1
		}
		if removed != wantRemoved {
			t.Errorf("GC(all=%v) on memory cache removed %d, want %d", all, removed, wantRemoved)
		}
		if _, ok := c.Get(j.Hash()); ok == all {
			t.Errorf("memory entry present=%v after GC(all=%v)", ok, all)
		}
	}
}
