package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"senss/internal/driver"
	"senss/internal/machine"
	"senss/internal/workload"
)

// newTestServer builds a server plus an httptest front end and tears
// both down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// call issues one JSON request and decodes the response body into out
// (when out is non-nil and the status is 2xx). It returns the status
// and raw body for error-path assertions.
func call(t *testing.T, client *http.Client, method, url string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

// errCode decodes the error envelope's machine-readable code.
func errCode(t *testing.T, raw []byte) string {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decode error envelope %q: %v", raw, err)
	}
	return e.Code
}

// expectedRun computes the serial-ground-truth measurements for a spec
// by replaying its exact configuration through driver.Run.
func expectedRun(t *testing.T, spec SessionSpec) []byte {
	t.Helper()
	size, err := spec.SizeVal()
	if err != nil {
		t.Fatalf("size: %v", err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	run, err := driver.Run(spec.Workload, size, cfg)
	if err != nil {
		t.Fatalf("serial run of %s: %v", spec.Workload, err)
	}
	b, err := json.Marshal(run)
	if err != nil {
		t.Fatalf("marshal serial run: %v", err)
	}
	return b
}

// driveToDone creates a session and steps it to completion over HTTP,
// retrying politely on backpressure. It returns the session ID.
func driveToDone(t *testing.T, client *http.Client, base string, spec SessionSpec, cycles uint64) string {
	t.Helper()
	var info SessionInfo
	for {
		code, raw := call(t, client, http.MethodPost, base+"/v1/sessions", spec, &info)
		if code == http.StatusTooManyRequests {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if code != http.StatusCreated {
			t.Fatalf("create: status %d: %s", code, raw)
		}
		break
	}
	req := StepRequest{Cycles: cycles}
	for {
		var resp StepResponse
		code, raw := call(t, client, http.MethodPost, base+"/v1/sessions/"+info.ID+"/step", req, &resp)
		if code == http.StatusTooManyRequests {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("step: status %d: %s", code, raw)
		}
		if resp.Done {
			if resp.State != "done" {
				t.Fatalf("session %s finished in state %q", info.ID, resp.State)
			}
			return info.ID
		}
	}
}

// sessionStats fetches and decodes a session's stats payload.
func sessionStats(t *testing.T, client *http.Client, base, id string) StatsResponse {
	t.Helper()
	var sr StatsResponse
	code, raw := call(t, client, http.MethodGet, base+"/v1/sessions/"+id+"/stats", nil, &sr)
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, raw)
	}
	return sr
}

func TestServeLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Backlog: 8})
	spec := SessionSpec{Tenant: "acme", Workload: "lockcontend", Security: "senss"}
	id := driveToDone(t, ts.Client(), ts.URL, spec, 0)

	sr := sessionStats(t, ts.Client(), ts.URL, id)
	if !sr.Done || sr.State != "done" || sr.Error != "" {
		t.Fatalf("stats: done=%v state=%q err=%q", sr.Done, sr.State, sr.Error)
	}
	got, err := json.Marshal(sr.Stats)
	if err != nil {
		t.Fatalf("marshal served stats: %v", err)
	}
	if want := expectedRun(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("served stats diverge from serial driver.Run:\n got  %s\n want %s", got, want)
	}

	// Delete returns the final snapshot; the session is then gone.
	var final StatsResponse
	code, raw := call(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil, &final)
	if code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", code, raw)
	}
	if final.ID != id || !final.Done {
		t.Fatalf("delete snapshot: %+v", final)
	}
	code, raw = call(t, ts.Client(), http.MethodGet, ts.URL+"/v1/sessions/"+id+"/stats", nil, nil)
	if code != http.StatusNotFound || errCode(t, raw) != "not_found" {
		t.Fatalf("stats after delete: status %d code %q", code, errCode(t, raw))
	}
}

// TestServeConcurrentSessionsMatchSerial is the acceptance workhorse:
// 64 sessions across 4 tenants stepped concurrently through the worker
// pool, every one finishing with measurements byte-identical to a
// serial driver.Run of the same configuration — slicing and scheduling
// are invisible to the simulations.
func TestServeConcurrentSessionsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second concurrency test")
	}
	srv, ts := newTestServer(t, Options{Workers: 4, Backlog: 64, TenantQuota: 0})

	workloads := []string{"lockcontend", "water", "falseshare"}
	want := make(map[string][]byte)
	for _, wl := range workloads {
		want[wl] = expectedRun(t, SessionSpec{Workload: wl, Security: "senss"})
	}

	const sessions = 64
	const tenants = 4
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := SessionSpec{
				Tenant:   fmt.Sprintf("tenant-%d", i%tenants),
				Workload: workloads[i%len(workloads)],
				Security: "senss",
			}
			client := &http.Client{Timeout: 60 * time.Second}
			id := driveToDone(t, client, ts.URL, spec, 50_000)
			sr := sessionStats(t, client, ts.URL, id)
			got, err := json.Marshal(sr.Stats)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, want[spec.Workload]) {
				errs <- fmt.Errorf("session %s (%s): served stats diverge from serial run", id, spec.Workload)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	if st.Sessions != sessions {
		t.Fatalf("sessions registered = %d, want %d", st.Sessions, sessions)
	}
	if st.GroupsInUse != sessions {
		t.Fatalf("groups in use = %d, want %d (one per secured session)", st.GroupsInUse, sessions)
	}
	if len(st.GroupsByTenant) != tenants {
		t.Fatalf("tenants tracked = %d, want %d", len(st.GroupsByTenant), tenants)
	}
}

// TestServeQuotaExhaustion pins the multi-tenant fairness story: one
// tenant exhausting its group quota gets the typed 429 while other
// tenants keep creating and stepping sessions.
func TestServeQuotaExhaustion(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Backlog: 8, GroupCapacity: 3, TenantQuota: 1})
	client := ts.Client()
	secured := func(tenant string) SessionSpec {
		return SessionSpec{Tenant: tenant, Workload: "lockcontend", Security: "senss"}
	}

	var infoA SessionInfo
	code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", secured("a"), &infoA)
	if code != http.StatusCreated {
		t.Fatalf("tenant a first create: %d %s", code, raw)
	}
	// Tenant a's quota (1) is spent: the second secured session bounces
	// with the typed group-exhaustion code and a Retry-After hint.
	code, raw = call(t, client, http.MethodPost, ts.URL+"/v1/sessions", secured("a"), nil)
	if code != http.StatusTooManyRequests || errCode(t, raw) != "groups_exhausted" {
		t.Fatalf("tenant a over quota: status %d code %q", code, errCode(t, raw))
	}
	// An unsecured session costs no groups, so tenant a may still run one.
	base := SessionSpec{Tenant: "a", Workload: "lockcontend"}
	if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", base, nil); code != http.StatusCreated {
		t.Fatalf("tenant a unsecured create: %d %s", code, raw)
	}

	// Other tenants are untouched by a's exhaustion...
	var infoB, infoC SessionInfo
	if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", secured("b"), &infoB); code != http.StatusCreated {
		t.Fatalf("tenant b create: %d %s", code, raw)
	}
	if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", secured("c"), &infoC); code != http.StatusCreated {
		t.Fatalf("tenant c create: %d %s", code, raw)
	}
	// ...until the global matrix (capacity 3) fills; then the error is
	// globally scoped.
	code, raw = call(t, client, http.MethodPost, ts.URL+"/v1/sessions", secured("d"), nil)
	if code != http.StatusTooManyRequests || errCode(t, raw) != "groups_exhausted" {
		t.Fatalf("global exhaustion: status %d code %q", code, errCode(t, raw))
	}

	// Tenant b's session keeps stepping while a and d are rejected.
	var resp StepResponse
	code, raw = call(t, client, http.MethodPost, ts.URL+"/v1/sessions/"+infoB.ID+"/step", StepRequest{Cycles: 10_000}, &resp)
	if code != http.StatusOK || resp.Cycles == 0 {
		t.Fatalf("tenant b step during exhaustion: status %d cycles %d %s", code, resp.Cycles, raw)
	}

	// Deleting a secured session returns its group; tenant d now fits.
	if code, raw := call(t, client, http.MethodDelete, ts.URL+"/v1/sessions/"+infoC.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete tenant c: %d %s", code, raw)
	}
	if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", secured("d"), nil); code != http.StatusCreated {
		t.Fatalf("tenant d create after release: %d %s", code, raw)
	}
}

func TestServePauseResume(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Backlog: 8})
	client := ts.Client()
	var info SessionInfo
	spec := SessionSpec{Tenant: "acme", Workload: "lockcontend", Security: "senss"}
	if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", spec, &info); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	var paused SessionInfo
	if code, _ := call(t, client, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/pause", nil, &paused); code != http.StatusOK || paused.State != "paused" {
		t.Fatalf("pause: %d state %q", code, paused.State)
	}
	code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/step", nil, nil)
	if code != http.StatusConflict || errCode(t, raw) != "session_paused" {
		t.Fatalf("step while paused: status %d code %q", code, errCode(t, raw))
	}
	var resumed SessionInfo
	if code, _ := call(t, client, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/resume", nil, &resumed); code != http.StatusOK || resumed.State != "running" {
		t.Fatalf("resume: %d state %q", code, resumed.State)
	}
	var resp StepResponse
	if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/step", StepRequest{Cycles: 10_000}, &resp); code != http.StatusOK || resp.Cycles == 0 {
		t.Fatalf("step after resume: %d cycles %d %s", code, resp.Cycles, raw)
	}
}

// TestServeEviction drives the idle janitor with an injected clock: the
// untouched session is reaped (quota returned), the recently stepped
// one survives.
func TestServeEviction(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	srv, ts := newTestServer(t, Options{Workers: 2, Backlog: 8, IdleTimeout: time.Minute, Now: clock})
	client := ts.Client()
	spec := SessionSpec{Tenant: "acme", Workload: "lockcontend", Security: "senss"}
	var a, b SessionInfo
	call(t, client, http.MethodPost, ts.URL+"/v1/sessions", spec, &a)
	call(t, client, http.MethodPost, ts.URL+"/v1/sessions", spec, &b)
	if got := srv.quota.InUse(); got != 2 {
		t.Fatalf("groups in use = %d, want 2", got)
	}

	advance(30 * time.Second)
	// Touch a; b stays idle.
	if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions/"+a.ID+"/step", StepRequest{Cycles: 1000}, nil); code != http.StatusOK {
		t.Fatalf("touch step: %d %s", code, raw)
	}
	advance(45 * time.Second) // a idle 45s, b idle 75s

	if n := srv.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if code, _ := call(t, client, http.MethodGet, ts.URL+"/v1/sessions/"+b.ID+"/stats", nil, nil); code != http.StatusNotFound {
		t.Fatalf("evicted session still serves stats: %d", code)
	}
	if code, _ := call(t, client, http.MethodGet, ts.URL+"/v1/sessions/"+a.ID+"/stats", nil, nil); code != http.StatusOK {
		t.Fatalf("survivor lost: %d", code)
	}
	if got := srv.quota.InUse(); got != 1 {
		t.Fatalf("groups in use after eviction = %d, want 1", got)
	}
	st := srv.Stats()
	if st.Evicted != 1 || st.Sessions != 1 {
		t.Fatalf("server stats after eviction: evicted=%d sessions=%d", st.Evicted, st.Sessions)
	}
}

// rawStatus issues one request and returns only the status code, with
// transport failures as an error — safe to call from helper goroutines,
// unlike call, which t.Fatals.
func rawStatus(client *http.Client, method, url string, body any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	if err := resp.Body.Close(); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// TestServeEvictionRace is lockguard's dynamic counterpart: under -race
// it interleaves DELETE, janitor idle-eviction sweeps, and concurrent
// steps on the same session, round after round. The invariants are the
// close()-winner protocol's: the quota is released exactly once per
// session (the Accountant panics on over-release), a stepper never
// resurrects an evicted session, and the books drain to zero.
func TestServeEvictionRace(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	srv, ts := newTestServer(t, Options{Workers: 4, Backlog: 32, IdleTimeout: time.Millisecond, Now: clock})
	client := ts.Client()
	spec := SessionSpec{Tenant: "acme", Workload: "lockcontend", Security: "senss"}

	rounds := 20
	if testing.Short() {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		var info SessionInfo
		for {
			code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", spec, &info)
			if code == http.StatusTooManyRequests {
				time.Sleep(time.Millisecond)
				continue
			}
			if code != http.StatusCreated {
				t.Fatalf("round %d: create: status %d: %s", round, code, raw)
			}
			break
		}
		stepURL := ts.URL + "/v1/sessions/" + info.ID + "/step"
		delURL := ts.URL + "/v1/sessions/" + info.ID

		errs := make(chan error, 16)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 5; j++ {
					code, err := rawStatus(client, http.MethodPost, stepURL, StepRequest{Cycles: 200})
					if err != nil {
						errs <- fmt.Errorf("step: %w", err)
						return
					}
					switch code {
					case http.StatusOK, http.StatusNotFound, http.StatusTooManyRequests:
					default:
						errs <- fmt.Errorf("step: unexpected status %d", code)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, err := rawStatus(client, http.MethodDelete, delURL, nil)
			if err != nil {
				errs <- fmt.Errorf("delete: %w", err)
				return
			}
			// 200 = this goroutine won the teardown, 404 = a sweep did.
			if code != http.StatusOK && code != http.StatusNotFound {
				errs <- fmt.Errorf("delete: unexpected status %d", code)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 5; j++ {
				advance(10 * time.Millisecond)
				srv.Sweep()
			}
		}()
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		// The session is gone whichever path won; stepping it must 404,
		// never revive it.
		if code, _ := rawStatus(client, http.MethodPost, stepURL, StepRequest{Cycles: 200}); code != http.StatusNotFound {
			t.Fatalf("round %d: step after teardown: status %d, want 404", round, code)
		}
	}
	if n := srv.table.Len(); n != 0 {
		t.Fatalf("table holds %d sessions after teardown", n)
	}
	if got := srv.quota.InUse(); got != 0 {
		t.Fatalf("groups in use after teardown = %d, want 0", got)
	}
}

// TestServeOverload saturates the pool (one worker, no backlog) and
// checks the 429 + Retry-After backpressure contract on create.
func TestServeOverload(t *testing.T) {
	orig := newDriverSession
	t.Cleanup(func() { newDriverSession = orig })
	block := make(chan struct{})
	started := make(chan struct{})
	newDriverSession = func(name string, size workload.Size, cfg machine.Config) (*driver.Session, error) {
		close(started)
		<-block
		return orig(name, size, cfg)
	}
	_, ts := newTestServer(t, Options{Workers: 1, Backlog: -1})
	client := ts.Client()
	spec := SessionSpec{Tenant: "acme", Workload: "lockcontend"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		call(t, client, http.MethodPost, ts.URL+"/v1/sessions", spec, nil)
	}()
	<-started
	newDriverSession = orig // the saturating request is already inside

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", bytes.NewReader([]byte(`{"tenant":"acme","workload":"lockcontend"}`)))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("overload request: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, raw) != "overloaded" {
		t.Fatalf("saturated create: status %d code %q", resp.StatusCode, errCode(t, raw))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overload response missing Retry-After header")
	}
	close(block)
	<-done
}

// TestServePanicIsolation proves a panicking simulation build is
// confined to its request: the client gets an error envelope and the
// server keeps serving.
func TestServePanicIsolation(t *testing.T) {
	orig := newDriverSession
	t.Cleanup(func() { newDriverSession = orig })
	newDriverSession = func(name string, size workload.Size, cfg machine.Config) (*driver.Session, error) {
		panic("rigged build")
	}
	srv, ts := newTestServer(t, Options{Workers: 2, Backlog: 8})
	client := ts.Client()
	spec := SessionSpec{Tenant: "acme", Workload: "lockcontend", Security: "senss"}
	code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", spec, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "panicked") {
		t.Fatalf("rigged create: status %d body %s", code, raw)
	}
	// The failed create returned its group reservation.
	if got := srv.quota.InUse(); got != 0 {
		t.Fatalf("groups leaked by panicked create: %d", got)
	}
	newDriverSession = orig
	if code, _ := call(t, client, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", code)
	}
	if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", spec, nil); code != http.StatusCreated {
		t.Fatalf("create after panic: %d %s", code, raw)
	}
}

// TestServeFollowStats reads the ndjson stream: monotone cycle counts,
// final line done with stats byte-identical to the serial run.
func TestServeFollowStats(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Backlog: 8, StepCycles: 50_000})
	client := ts.Client()
	spec := SessionSpec{Tenant: "acme", Workload: "lockcontend", Security: "senss"}
	var info SessionInfo
	if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", spec, &info); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	resp, err := client.Get(ts.URL + "/v1/sessions/" + info.ID + "/stats?follow=true")
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("follow content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last StatsResponse
	var lines int
	var prevCycles uint64
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if last.Cycles < prevCycles {
			t.Fatalf("cycles went backwards: %d -> %d", prevCycles, last.Cycles)
		}
		prevCycles = last.Cycles
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if lines < 2 {
		t.Fatalf("follow produced %d lines, want at least initial + final", lines)
	}
	if !last.Done || last.State != "done" {
		t.Fatalf("final line: done=%v state=%q", last.Done, last.State)
	}
	got, _ := json.Marshal(last.Stats)
	if want := expectedRun(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("followed stats diverge from serial run:\n got  %s\n want %s", got, want)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Backlog: 8})
	client := ts.Client()
	cases := []struct {
		name string
		body string
	}{
		{"missing tenant", `{"workload":"fft"}`},
		{"missing workload", `{"tenant":"acme"}`},
		{"unknown workload", `{"tenant":"acme","workload":"doom"}`},
		{"unknown security", `{"tenant":"acme","workload":"fft","security":"tinfoil"}`},
		{"unknown size", `{"tenant":"acme","workload":"fft","size":"galactic"}`},
		{"invalid procs", `{"tenant":"acme","workload":"fft","procs":-3}`},
		{"malformed json", `{"tenant":`},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", strings.NewReader(tc.body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
			t.Errorf("%s: status %d code %q", tc.name, resp.StatusCode, errCode(t, raw))
		}
	}
	// Unknown session IDs 404 on every per-session route.
	for _, r := range []struct{ method, path string }{
		{http.MethodPost, "/v1/sessions/s-nope/step"},
		{http.MethodPost, "/v1/sessions/s-nope/pause"},
		{http.MethodPost, "/v1/sessions/s-nope/resume"},
		{http.MethodGet, "/v1/sessions/s-nope/stats"},
		{http.MethodDelete, "/v1/sessions/s-nope"},
	} {
		code, raw := call(t, client, r.method, ts.URL+r.path, nil, nil)
		if code != http.StatusNotFound || errCode(t, raw) != "not_found" {
			t.Errorf("%s %s: status %d code %q", r.method, r.path, code, errCode(t, raw))
		}
	}
}

func TestServeListAndServerStats(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Backlog: 8})
	client := ts.Client()
	for _, tenant := range []string{"a", "a", "b"} {
		spec := SessionSpec{Tenant: tenant, Workload: "lockcontend", Security: "senss"}
		if code, raw := call(t, client, http.MethodPost, ts.URL+"/v1/sessions", spec, nil); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, raw)
		}
	}
	var all, onlyA []SessionInfo
	call(t, client, http.MethodGet, ts.URL+"/v1/sessions", nil, &all)
	call(t, client, http.MethodGet, ts.URL+"/v1/sessions?tenant=a", nil, &onlyA)
	if len(all) != 3 || len(onlyA) != 2 {
		t.Fatalf("list: all=%d a=%d", len(all), len(onlyA))
	}
	var st ServerStats
	code, raw := call(t, client, http.MethodGet, ts.URL+"/v1/server", nil, &st)
	if code != http.StatusOK {
		t.Fatalf("server stats: %d %s", code, raw)
	}
	if st.Sessions != 3 || st.GroupsInUse != 3 || st.Workers != 2 {
		t.Fatalf("server stats: %+v", st)
	}
	if st.GroupsByTenant["a"] != 2 || st.GroupsByTenant["b"] != 1 {
		t.Fatalf("groups by tenant: %v", st.GroupsByTenant)
	}
}

// TestRunBench exercises the load generator end to end at a small scale.
func TestRunBench(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run")
	}
	_, ts := newTestServer(t, Options{Workers: 2, Backlog: 32})
	rep, err := RunBench(BenchOptions{
		BaseURL:           ts.URL,
		Tenants:           2,
		SessionsPerTenant: 2,
	})
	if err != nil {
		t.Fatalf("bench: %v", err)
	}
	if rep.Completed != 4 || rep.Failed != 0 {
		t.Fatalf("bench report: completed=%d failed=%d", rep.Completed, rep.Failed)
	}
	if rep.Steps < 4 || rep.SessionsPerSec <= 0 || rep.StepP50MS <= 0 {
		t.Fatalf("bench metrics implausible: %+v", rep)
	}
	if rep.StepP99MS < rep.StepP50MS {
		t.Fatalf("p99 (%v) < p50 (%v)", rep.StepP99MS, rep.StepP50MS)
	}
}
