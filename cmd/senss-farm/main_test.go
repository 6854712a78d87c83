package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"senss/internal/farm"
	"senss/internal/machine"
	"senss/internal/stats"
	"senss/internal/workload"
)

// seedCache populates dir with one valid entry, one garbage entry, and
// the given manifests, returning the valid job's hash.
func seedCache(t *testing.T, dir string, manifests ...farm.Manifest) string {
	t.Helper()
	c, err := farm.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Seed = 7
	j := farm.Job{Workload: "falseshare", Size: workload.SizeTest, Config: cfg, Figure: "test"}
	if err := c.Put(j, j.Hash(), stats.Run{Cycles: 1234}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/0123456789abcdef0123456789abcdef.json", []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, m := range manifests {
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(farm.ManifestPath(dir, m.Sweep), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return j.Hash()
}

func manifestWith(sweep string, statuses ...string) farm.Manifest {
	m := farm.Manifest{Sweep: sweep, Version: farm.CacheVersion}
	for i, s := range statuses {
		m.Jobs = append(m.Jobs, farm.ManifestEntry{
			Hash:     strings.Repeat("0", 31) + string(rune('a'+i)),
			Workload: "falseshare",
			Status:   s,
		})
	}
	return m
}

// TestStatusText pins the human-readable status report across cache and
// manifest states.
func TestStatusText(t *testing.T) {
	cases := []struct {
		name         string
		seed         bool
		manifests    []farm.Manifest
		wantContains []string
	}{
		{
			name: "empty cache",
			wantContains: []string{
				"0 valid entries, 0 invalid/stale",
				"no sweep manifests",
			},
		},
		{
			name: "entries but no manifests",
			seed: true,
			wantContains: []string{
				"1 valid entries, 1 invalid/stale",
				"no sweep manifests",
			},
		},
		{
			name: "manifest states",
			seed: true,
			manifests: []farm.Manifest{
				manifestWith("fig6-done", farm.StatusDone, farm.StatusDone),
				manifestWith("fig7-part", farm.StatusDone, farm.StatusPending),
				manifestWith("fig8-bad", farm.StatusDone, farm.StatusFailed),
			},
			wantContains: []string{
				"1 valid entries, 1 invalid/stale",
				"fig6-done",
				"2 done, 0 failed, 0 pending  (complete)",
				"fig7-part",
				"1 done, 0 failed, 1 pending  (resumable)",
				"fig8-bad",
				"1 done, 1 failed, 0 pending  (has failures)",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.seed {
				seedCache(t, dir, tc.manifests...)
			}
			var buf bytes.Buffer
			if err := writeStatus(&buf, dir, false); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.wantContains {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("status output missing %q:\n%s", want, buf.String())
				}
			}
		})
	}
}

// TestStatusJSON: the -json document carries the same facts in
// machine-readable form.
func TestStatusJSON(t *testing.T) {
	dir := t.TempDir()
	seedCache(t, dir, manifestWith("fig6-test", farm.StatusDone, farm.StatusPending))
	var buf bytes.Buffer
	if err := writeStatus(&buf, dir, true); err != nil {
		t.Fatal(err)
	}
	var got statusReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("status -json emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if got.CacheDir != dir || got.Version != farm.CacheVersion {
		t.Errorf("report header = %q/%q", got.CacheDir, got.Version)
	}
	if got.Entries != 1 || got.Invalid != 1 {
		t.Errorf("entries=%d invalid=%d, want 1/1", got.Entries, got.Invalid)
	}
	if len(got.Sweeps) != 1 || got.Sweeps[0].Sweep != "fig6-test" {
		t.Fatalf("sweeps = %+v", got.Sweeps)
	}
	done, failed, pending := got.Sweeps[0].Counts()
	if done != 1 || failed != 0 || pending != 1 {
		t.Errorf("counts = %d/%d/%d, want 1/0/1", done, failed, pending)
	}
}
