package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestTraceRejectsBadConfig: -trace runs through the same validated path
// as an untraced run, so a bad config exits 1 with the same message
// instead of panicking inside machine construction.
func TestTraceRejectsBadConfig(t *testing.T) {
	const want = "senss-sim: senss: invalid config for fft: machine: mask banks = 3, must be 1, 2, 4, or 8\n"
	path := filepath.Join(t.TempDir(), "t.jsonl")
	for _, args := range [][]string{
		{"-mode", "senss", "-masks", "3"},
		{"-mode", "senss", "-masks", "3", "-trace", path},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if stderr.String() != want {
			t.Errorf("%v: stderr %q, want %q", args, stderr.String(), want)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("rejected traced run left a trace file (stat: %v)", err)
	}
}

// TestRejectsBadCacheGeometry: an -l1 or -l2 size that gives a set
// count cache.New cannot index is a usage error (exit 2, one line on
// stderr), not a panic inside machine construction.
func TestRejectsBadCacheGeometry(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-l2", "100000"}, "set count 390 is not a power of two"},
		{[]string{"-l1", "3000", "-mode", "senss"}, "set count 46 is not a power of two"},
		{[]string{"-l2", "0"}, "must be positive"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "senss-sim: bad -l1/-l2 size: ") || !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one usage line naming %q", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report: %q", tc.args, stdout.String())
		}
	}
}

// TestTraceWritesEveryEvent: the JSONL file holds one line per event the
// summary reports.
func TestTraceWritesEveryEvent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "prodcons", "-procs", "2", "-mode", "senss", "-trace", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	m := regexp.MustCompile(`trace: (\d+) events to `).FindSubmatch(stdout.Bytes())
	if m == nil {
		t.Fatalf("no trace summary in stdout:\n%s", stdout.String())
	}
	events, _ := strconv.Atoi(string(m[1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); events == 0 || lines != events {
		t.Errorf("trace file has %d lines, summary reports %d events", lines, events)
	}
}

// TestTraceHonoursCompare: a traced secured run reports the untraced
// baseline, the secured run and the slowdown exactly as the untraced
// command does, then the trace summary; with -compare=false it reports
// the secured run alone.
func TestTraceHonoursCompare(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	args := []string{"-workload", "prodcons", "-procs", "2", "-mode", "senss"}
	for _, compare := range []string{"true", "false"} {
		var plain, traced, stderr bytes.Buffer
		if code := run(append(args, "-compare="+compare), &plain, &stderr); code != 0 {
			t.Fatalf("-compare=%s: exit %d, stderr:\n%s", compare, code, stderr.String())
		}
		if code := run(append(args, "-compare="+compare, "-trace", path), &traced, &stderr); code != 0 {
			t.Fatalf("-compare=%s -trace: exit %d, stderr:\n%s", compare, code, stderr.String())
		}
		rest, ok := strings.CutPrefix(traced.String(), plain.String())
		if !ok || !strings.HasPrefix(rest, "\ntrace: ") {
			t.Errorf("-compare=%s: traced output does not extend the untraced one with the trace summary\nuntraced:\n%s\ntraced:\n%s",
				compare, plain.String(), traced.String())
		}
		if hasBase := strings.Contains(plain.String(), "=== baseline ==="); hasBase != (compare == "true") {
			t.Errorf("-compare=%s: baseline reported = %v", compare, hasBase)
		}
	}
}
