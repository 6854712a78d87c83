package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"senss/internal/workload"
)

// TestValidWorkload pins the bench-sim -workload guard: every built-in
// name passes, a typo fails fast naming the available set.
func TestValidWorkload(t *testing.T) {
	for _, name := range workload.AllNames() {
		if err := validWorkload(name); err != nil {
			t.Errorf("validWorkload(%q) = %v", name, err)
		}
	}
	err := validWorkload("oceen")
	if err == nil {
		t.Fatal("typo accepted")
	}
	if !strings.Contains(err.Error(), `"oceen"`) || !strings.Contains(err.Error(), "ocean") {
		t.Fatalf("error does not name the typo and the available set: %v", err)
	}
}

// TestBenchSimJobs pins the sweep's record set: one record per workload
// at the 4-processor bench geometry, plus the single-processor engine
// record, in workload order — BENCH_sim.json's shape is part of the
// bench-check contract.
func TestBenchSimJobs(t *testing.T) {
	names := workload.AllNames()
	jobs := benchSimJobs(names)
	if len(jobs) != len(names)+1 {
		t.Fatalf("%d jobs for %d workloads, want %d", len(jobs), len(names), len(names)+1)
	}
	for i, n := range names {
		if jobs[i].Workload != n || jobs[i].Procs != benchSimProcs {
			t.Errorf("job %d = %+v, want {%s %d}", i, jobs[i], n, benchSimProcs)
		}
	}
	last := jobs[len(jobs)-1]
	if last.Workload != "ocean" || last.Procs != 1 {
		t.Errorf("engine record = %+v, want {ocean 1}", last)
	}
}

// TestBenchSimRecordsWorkloads runs a tiny two-workload bench-sim sweep
// and pins that the emitted records carry the workloads that produced
// them plus the 1-proc engine record — trajectory points from different
// workloads must never be conflated.
func TestBenchSimRecordsWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	out := t.TempDir() + "/BENCH_sim.json"
	if err := cmdBenchSim([]string{"-workloads", "lockcontend,prodcons", "-iters", "1", "-out", out}); err != nil {
		t.Fatalf("bench-sim: %v", err)
	}
	reports, err := readSimBench(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []simBenchJob{
		{Workload: "lockcontend", Procs: benchSimProcs},
		{Workload: "prodcons", Procs: benchSimProcs},
		{Workload: "ocean", Procs: 1},
	}
	if len(reports) != len(want) {
		t.Fatalf("%d records, want %d", len(reports), len(want))
	}
	for i, rep := range reports {
		if rep.Workload != want[i].Workload || rep.Procs != want[i].Procs || rep.Iterations != 1 {
			t.Errorf("record %d = %s/procs=%d/iters=%d, want %s/procs=%d/iters=1",
				i, rep.Workload, rep.Procs, rep.Iterations, want[i].Workload, want[i].Procs)
		}
		if rep.SimMemOps == 0 || rep.OpsPerSecond <= 0 {
			t.Errorf("implausible measurement: %+v", rep)
		}
	}
	if err := cmdBenchSim([]string{"-workloads", "oceen"}); err == nil {
		t.Fatal("bench-sim accepted unknown workload")
	}
}

// TestCheckSimBench pins bench-check's verdict: a fresh record must reach
// 85% of its committed ops/sec, and every committed record must have a
// fresh counterpart of the same workload and processor count.
func TestCheckSimBench(t *testing.T) {
	rec := func(workload string, procs int, opsPerSec float64) simBenchReport {
		return simBenchReport{Workload: workload, Procs: procs, OpsPerSecond: opsPerSec}
	}
	baseline := []simBenchReport{rec("fft", 4, 1000), rec("ocean", 1, 1000)}
	cases := []struct {
		name    string
		fresh   []simBenchReport
		wantErr string
	}{
		{"at 86% passes", []simBenchReport{rec("ocean", 1, 860), rec("fft", 4, 860)}, ""},
		{"at 84% fails", []simBenchReport{rec("fft", 4, 1000), rec("ocean", 1, 840)}, "ocean procs=1: 840 ops/s vs committed 1000 (84%)"},
		{"missing record", []simBenchReport{rec("fft", 4, 1000), rec("ocean", 4, 1000)}, "ocean procs=1: no fresh measurement"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := checkSimBench(baseline, tc.fresh)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected failure: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckCycleIdentity pins the cross-backend fidelity gate behind
// bench-crypto: backends that simulate different cycle counts fail it.
func TestCheckCycleIdentity(t *testing.T) {
	same := []backendReport{{Name: "ref", E2ECycles: 62874}, {Name: "stdlib", E2ECycles: 62874}}
	if err := checkCycleIdentity(same); err != nil {
		t.Fatalf("identical backends rejected: %v", err)
	}
	differ := []backendReport{{Name: "ref", E2ECycles: 62874}, {Name: "stdlib", E2ECycles: 62875}}
	if err := checkCycleIdentity(differ); err == nil {
		t.Fatal("backends with different cycle counts passed")
	}
}

// TestBenchRecordKeys pins that every key of each committed BENCH record
// still appears in the record its subcommand emits, so readers of the
// trajectory files keep their fields. BENCH_serve.json's "timestamp" is
// the one rename: it became the shared header's "date".
func TestBenchRecordKeys(t *testing.T) {
	cases := []struct {
		file    string
		emitted any
		renamed map[string]string
	}{
		{"BENCH_farm.json", farmBenchReport{}, nil},
		{"BENCH_sim.json", []simBenchReport{{}}, nil},
		{"BENCH_crypto.json", cryptoBenchReport{Backends: []backendReport{{}}}, nil},
		{"BENCH_serve.json", serveBenchReport{}, map[string]string{"timestamp": "date"}},
	}
	for _, tc := range cases {
		data, err := os.ReadFile("../../" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		var committed any
		if err := json.Unmarshal(data, &committed); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		emitted, err := json.Marshal(tc.emitted)
		if err != nil {
			t.Fatal(err)
		}
		var now any
		if err := json.Unmarshal(emitted, &now); err != nil {
			t.Fatal(err)
		}
		have := map[string]bool{}
		jsonKeys(now, "", have)
		want := map[string]bool{}
		jsonKeys(committed, "", want)
		var missing []string
		for k := range want {
			if r, ok := tc.renamed[k]; ok {
				k = r
			}
			if !have[k] {
				missing = append(missing, k)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s: emitted record lacks committed keys %v", tc.file, missing)
		}
	}
}

// jsonKeys adds the path of every object key in v to keys, with list
// elements written as "[]".
func jsonKeys(v any, prefix string, keys map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			keys[prefix+k] = true
			jsonKeys(child, prefix+k+".", keys)
		}
	case []any:
		for _, child := range v {
			jsonKeys(child, prefix+"[].", keys)
		}
	}
}
