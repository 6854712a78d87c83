package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// needSamples is the smallest sample count for which percentile p has at
// least minBeyond samples beyond it.
func needSamples(p float64) int {
	n := minBeyond
	for n-rank(p, n) < minBeyond {
		n++
	}
	return n
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs, and false
// when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	r := rank(p, len(xs))
	if len(xs)-r < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[r-1], true
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples. Used for repeated micro-measurements,
// where the ten-beyond rule of percentile does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mean is the average of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// latencies holds the per-operation timings of one measured phase, in ms.
type latencies struct {
	create []float64 // session assembly: NewSession, or POST /v1/sessions
	step   []float64 // one slice of sliceCycles cycles
}

func (l *latencies) merge(o latencies) {
	l.create = append(l.create, o.create...)
	l.step = append(l.step, o.step...)
}

// enough reports whether every reported percentile has its samples.
func (l *latencies) enough() bool {
	return len(l.create) >= needSamples(50) && len(l.step) >= needSamples(50)
}

// endToEnd assembles the end-to-end metrics shared by every workload.
func endToEnd(setupS float64, sessions int, ops uint64, wallS float64, l latencies) (map[string]metric, error) {
	m := map[string]metric{
		"setup_s":        {setupS, "s"},
		"sim_ops_per_s":  {float64(ops) / wallS, "1/s"},
		"sessions_per_s": {float64(sessions) / wallS, "1/s"},
	}
	for name, xs := range map[string][]float64{"create_p50_ms": l.create, "step_p50_ms": l.step} {
		v, ok := percentile(xs, 50)
		if !ok {
			return nil, fmt.Errorf("%s: only %d samples, need %d", name, len(xs), needSamples(50))
		}
		m[name] = metric{v, "ms"}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = metric{rss, "MB"}
	return m, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}
