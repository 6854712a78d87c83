package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"senss"
	"senss/internal/crypto"
	"senss/internal/farm"
	"senss/internal/machine"
	"senss/internal/stats"
	"senss/internal/workload"
)

// seedCache populates dir with one valid entry that belongs to no figure,
// one garbage entry, and a stand-in result for each of the given jobs.
func seedCache(t *testing.T, dir string, jobs ...farm.Job) {
	t.Helper()
	c, err := farm.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Seed = 7
	jobs = append(jobs, farm.Job{Workload: "falseshare", Size: workload.SizeTest, Config: cfg})
	for _, j := range jobs {
		if err := c.Put(j, j.Hash(), stats.Run{Cycles: 1234}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(dir+"/0123456789abcdef0123456789abcdef.json", []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// testJobs lists a figure's jobs at test size under a crypto backend.
func testJobs(t *testing.T, name, backend string) []farm.Job {
	t.Helper()
	h := senss.NewHarness(senss.SizeTest)
	h.Crypto = backend
	f, err := h.Figure(name)
	if err != nil {
		t.Fatal(err)
	}
	return f.Jobs()
}

// TestStatusText pins the human-readable status report across cache
// states: per figure, size and crypto backend, the jobs the cache holds
// are done.
func TestStatusText(t *testing.T) {
	cases := []struct {
		name         string
		seed         bool
		jobs         func(t *testing.T) []farm.Job
		wantContains []string
	}{
		{
			name: "empty cache",
			wantContains: []string{
				"0 valid entries, 0 invalid/stale",
				"fig 6     test  ref     40 jobs:   0 done,  40 pending  (not started)",
				"fig scale bench stdlib  40 jobs:   0 done,  40 pending  (not started)",
			},
		},
		{
			name: "entries outside every figure",
			seed: true,
			wantContains: []string{
				"1 valid entries, 1 invalid/stale",
				"fig 11    test  ref     16 jobs:   0 done,  16 pending  (not started)",
			},
		},
		{
			name: "figure states",
			seed: true,
			jobs: func(t *testing.T) []farm.Job {
				return append(testJobs(t, "11", crypto.Ref), testJobs(t, "6", crypto.Ref)[0])
			},
			wantContains: []string{
				"18 valid entries, 1 invalid/stale",
				"fig 11    test  ref     16 jobs:  16 done,   0 pending  (complete)",
				"fig 11    bench ref     16 jobs:   0 done,  16 pending  (not started)",
				"fig 6     test  ref     40 jobs:   1 done,  39 pending  (resumable)",
				"fig 7     test  ref     25 jobs:   0 done,  25 pending  (not started)",
			},
		},
		{
			// Baseline jobs carry no backend, so a finished stdlib sweep
			// leaves the ref sweep of the same figure half done.
			name: "another backend's sweep",
			seed: true,
			jobs: func(t *testing.T) []farm.Job {
				return testJobs(t, "6", crypto.Stdlib)
			},
			wantContains: []string{
				"41 valid entries, 1 invalid/stale",
				"fig 6     test  stdlib  40 jobs:  40 done,   0 pending  (complete)",
				"fig 6     test  ref     40 jobs:  20 done,  20 pending  (resumable)",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.seed {
				var jobs []farm.Job
				if tc.jobs != nil {
					jobs = tc.jobs(t)
				}
				seedCache(t, dir, jobs...)
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
	seeded := testJobs(t, "11", crypto.Ref)[:3]
	shared := 0 // baseline jobs count under every backend
	for _, j := range seeded {
		if j.Config.Security.Mode == machine.SecurityOff {
			shared++
		}
	}
	seedCache(t, dir, seeded...)
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
	if got.Entries != 4 || got.Invalid != 1 {
		t.Errorf("entries=%d invalid=%d, want 4/1", got.Entries, got.Invalid)
	}
	if want := 2 * len(crypto.Backends()) * len(senss.FigureNames()); len(got.Figures) != want {
		t.Fatalf("%d figure records, want %d: %+v", len(got.Figures), want, got.Figures)
	}
	for _, st := range got.Figures {
		wantDone := 0
		if st.Figure == "11" && st.Size == "test" {
			wantDone = shared
			if st.Backend == crypto.Ref {
				wantDone = len(seeded)
			}
		}
		if st.Done != wantDone || st.Done+st.Pending != st.Jobs {
			t.Errorf("fig %s %s %s: %d jobs, %d done, %d pending; want %d done",
				st.Figure, st.Size, st.Backend, st.Jobs, st.Done, st.Pending, wantDone)
		}
	}
}
