package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// BenchOptions shapes a load-generation run against a senss-serve
// endpoint: M tenants each opening K sessions of benchWorkload under
// benchSecurity and stepping them to completion.
type BenchOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenants is M.
	Tenants int
	// SessionsPerTenant is K.
	SessionsPerTenant int
}

// The load every bench session carries, and how it is driven: 2 client
// requests in flight per tenant, occupancy polled every benchSamplePeriod,
// each step the server's default slice.
const (
	benchWorkload     = "lockcontend"
	benchSecurity     = "senss"
	benchSamplePeriod = 20 * time.Millisecond
)

// BenchReport is the body of the BENCH_serve.json record.
type BenchReport struct {
	Workload          string  `json:"workload"`
	Security          string  `json:"security"`
	Tenants           int     `json:"tenants"`
	SessionsPerTenant int     `json:"sessions_per_tenant"`
	Sessions          int     `json:"sessions"`
	Completed         int     `json:"completed"`
	Failed            int     `json:"failed"`
	Steps             int     `json:"steps"`
	Retried429        int     `json:"retried_429"`
	WallMS            float64 `json:"wall_ms"`
	SessionsPerSec    float64 `json:"sessions_per_sec"`
	StepP50MS         float64 `json:"step_p50_ms"`
	StepP90MS         float64 `json:"step_p90_ms"`
	StepP99MS         float64 `json:"step_p99_ms"`
	// PeakGroups / PeakSessions are sampled from GET /v1/server during
	// the run: how full the shared SHU group matrix and session table got.
	PeakGroups    int `json:"peak_groups"`
	PeakSessions  int `json:"peak_sessions"`
	GroupCapacity int `json:"group_capacity"`
}

// benchClient is one worker's HTTP helper.
type benchClient struct {
	base string
	hc   *http.Client
}

func (c *benchClient) do(method, path string, body, out any) (status int, err error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	// A Close failure means the connection is not reusable; fold it into
	// the result rather than blanking it.
	defer func() { err = errors.Join(err, resp.Body.Close()) }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// RunBench drives the load and assembles the report.
func RunBench(opts BenchOptions) (BenchReport, error) {
	total := opts.Tenants * opts.SessionsPerTenant
	rep := BenchReport{
		Workload:          benchWorkload,
		Security:          benchSecurity,
		Tenants:           opts.Tenants,
		SessionsPerTenant: opts.SessionsPerTenant,
		Sessions:          total,
	}
	client := &benchClient{base: opts.BaseURL, hc: &http.Client{Timeout: 60 * time.Second}}

	// Occupancy sampler: poll server stats until the run signals done.
	samplerDone := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(benchSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-samplerDone:
				return
			case <-t.C:
				var st ServerStats
				if code, err := client.do(http.MethodGet, "/v1/server", nil, &st); err == nil && code == http.StatusOK {
					if st.GroupsInUse > rep.PeakGroups {
						rep.PeakGroups = st.GroupsInUse
					}
					if st.Sessions > rep.PeakSessions {
						rep.PeakSessions = st.Sessions
					}
					rep.GroupCapacity = st.GroupCapacity
				}
			}
		}
	}()

	type job struct{ tenant string }
	jobs := make(chan job, total)
	for t := 0; t < opts.Tenants; t++ {
		for k := 0; k < opts.SessionsPerTenant; k++ {
			jobs <- job{tenant: fmt.Sprintf("tenant-%d", t)}
		}
	}
	close(jobs)

	var mu sync.Mutex
	var latencies []time.Duration
	var completed, failed, steps, retried int

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 2*opts.Tenants; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &benchClient{base: opts.BaseURL, hc: &http.Client{Timeout: 60 * time.Second}}
			for j := range jobs {
				ok, nSteps, nRetried, lats := benchOne(c, j.tenant)
				mu.Lock()
				if ok {
					completed++
				} else {
					failed++
				}
				steps += nSteps
				retried += nRetried
				latencies = append(latencies, lats...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(samplerDone)
	samplerWG.Wait()

	rep.Completed = completed
	rep.Failed = failed
	rep.Steps = steps
	rep.Retried429 = retried
	rep.WallMS = float64(wall.Microseconds()) / 1e3
	if wall > 0 {
		rep.SessionsPerSec = float64(completed) / wall.Seconds()
	}
	rep.StepP50MS = percentileMS(latencies, 0.50)
	rep.StepP90MS = percentileMS(latencies, 0.90)
	rep.StepP99MS = percentileMS(latencies, 0.99)
	if failed > 0 {
		return rep, fmt.Errorf("serve: bench: %d of %d sessions failed", failed, total)
	}
	return rep, nil
}

// benchOne runs one session to completion: create, step until done,
// delete. 429 responses back off and retry — that is the backpressure
// contract working, not a failure.
func benchOne(c *benchClient, tenant string) (ok bool, steps, retried int, lats []time.Duration) {
	spec := SessionSpec{Tenant: tenant, Workload: benchWorkload, Security: benchSecurity}
	var info SessionInfo
	for {
		code, err := c.do(http.MethodPost, "/v1/sessions", spec, &info)
		if err != nil {
			return false, steps, retried, lats
		}
		if code == http.StatusTooManyRequests {
			retried++
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if code != http.StatusCreated {
			return false, steps, retried, lats
		}
		break
	}
	var req StepRequest
	for {
		var resp StepResponse
		t0 := time.Now()
		code, err := c.do(http.MethodPost, "/v1/sessions/"+info.ID+"/step", req, &resp)
		if err != nil {
			return false, steps, retried, lats
		}
		if code == http.StatusTooManyRequests {
			retried++
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if code != http.StatusOK {
			return false, steps, retried, lats
		}
		lats = append(lats, time.Since(t0))
		steps++
		if resp.Done {
			ok = resp.State == "done"
			break
		}
	}
	code, err := c.do(http.MethodDelete, "/v1/sessions/"+info.ID, nil, nil)
	if err != nil || code != http.StatusOK {
		return false, steps, retried, lats
	}
	return ok, steps, retried, lats
}

// percentileMS returns the p-th percentile of lats in milliseconds.
func percentileMS(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1e3
}
