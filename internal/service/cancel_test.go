// Cancellation and status-code contract tests: a timed-out /run must
// free its worker slot long before the pipeline would finish naturally,
// DELETE /dse/{id} must stop a sweep from evaluating its remaining
// variants, and error classes must map to their documented statuses
// (413 oversized body, 422 request faults, 500 simulator faults).
package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mat2c/internal/dse"
)

// spinRunRequest is a /run whose simulation would take minutes to
// complete naturally (billions of simulated instructions against a
// 50G-cycle default budget) — the only way it returns quickly is
// through cancellation.
func spinRunRequest() RunRequest {
	return RunRequest{
		CompileRequest: CompileRequest{
			Source: "function y = spin(n)\ny = 0;\nfor i = 1:n\ny = y + i;\nend\nend",
			Params: "real",
			SkipC:  true,
		},
		Args: json.RawMessage(`[2000000000]`),
	}
}

func TestTimedOutRunFreesWorkerSlot(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 200 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	begin := time.Now()
	resp, body := postJSON(t, ts, "/run", spinRunRequest())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("spin /run: status %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Errorf("timeout response took %s, want ~200ms", elapsed)
	}

	// The cancelled pipeline must release the only worker slot promptly
	// (bounded by the VM's poll stride), not hold it for the minutes the
	// spin would naturally run. Acquiring the slot IS the proof.
	select {
	case s.slots <- struct{}{}:
		<-s.slots
	case <-time.After(10 * time.Second):
		t.Fatal("worker slot still held 10s after the 504: cancellation did not reach the pipeline")
	}

	// And a real request must go through on that freed slot.
	resp, body = postJSON(t, ts, "/compile", CompileRequest{Source: scaleSrc, Params: "real(1,:), real"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile after timeout: status %d (%s), want 200", resp.StatusCode, body)
	}

	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Requests["run"].Timeouts != 1 {
		t.Errorf("run timeouts = %d, want 1", m.Requests["run"].Timeouts)
	}
	if m.VMFaults != 0 {
		t.Errorf("vm_faults = %d after a pure timeout, want 0", m.VMFaults)
	}
}

func TestClientDisconnectCancelsRun(t *testing.T) {
	s := New(Config{Workers: 1})
	// served signals that the /run handler has returned, by which time
	// it has counted the request.
	served := make(chan struct{}, 1)
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/run" {
			served <- struct{}{}
		}
	}))
	defer ts.Close()

	data, err := json.Marshal(spinRunRequest())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/run", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 300 * time.Millisecond}
	if _, err := client.Do(req); err == nil {
		t.Fatal("spin /run returned before the client timeout")
	}

	// The disconnect propagates through the request context into the
	// VM; the worker slot must come free without waiting out the spin.
	select {
	case s.slots <- struct{}{}:
		<-s.slots
	case <-time.After(10 * time.Second):
		t.Fatal("worker slot still held 10s after client disconnect")
	}

	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("/run handler still running 10s after client disconnect")
	}
	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Requests["run"].Cancelled != 1 {
		t.Errorf("run cancelled count = %d, want 1", m.Requests["run"].Cancelled)
	}
}

// TestStatusCodeMapping pins the documented error taxonomy: request
// faults are 4xx, simulator faults are 500 (and counted), and nothing
// is silently reclassified.
func TestStatusCodeMapping(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type statusCase struct {
		name string
		path string
		body interface{}
		want int
	}
	cases := []statusCase{
		{
			name: "bad matlab is 422",
			path: "/compile",
			body: CompileRequest{Source: "function y = f(x)\ny = ((x;\nend"},
			want: http.StatusUnprocessableEntity,
		},
		{
			name: "bad param syntax is 422",
			path: "/compile",
			body: CompileRequest{Source: scaleSrc, Params: "real(1,:), wat"},
			want: http.StatusUnprocessableEntity,
		},
		{
			name: "wrong arg count is 422",
			path: "/run",
			body: RunRequest{
				CompileRequest: CompileRequest{Source: scaleSrc, Params: "real(1,:), real", SkipC: true},
				Args:           json.RawMessage(`[[1,2,3]]`),
			},
			want: http.StatusUnprocessableEntity,
		},
		{
			// JSON has no NaN: the reply cannot be written.
			name: "non-finite result is 500",
			path: "/run",
			body: RunRequest{
				CompileRequest: CompileRequest{Source: "function y = f(x)\ny = x / x;\nend", Params: "real", SkipC: true},
				Args:           json.RawMessage(`[0]`),
			},
			want: http.StatusInternalServerError,
		},
		{
			name: "runtime vm fault is 500",
			path: "/run",
			body: RunRequest{
				CompileRequest: CompileRequest{
					Source: "function y = f(x)\ny = x(10);\nend",
					Params: "real(1,:)",
					SkipC:  true,
				},
				Args: json.RawMessage(`[[1,2,3]]`),
			},
			want: http.StatusInternalServerError,
		},
	}
	// Argument shapes that once crashed the decoder or made it allocate
	// gigabytes are client errors.
	for _, arg := range []string{
		`{"rows":3037000500,"cols":3037000500}`,
		`{"rows":4294967296,"cols":4294967296}`,
		`{"rows":2048,"cols":2048,"data":[1]}`,
		`{"rows":4096,"cols":4096}`,
	} {
		cases = append(cases, statusCase{
			name: "argument " + arg + " is 422",
			path: "/run",
			body: RunRequest{
				CompileRequest: CompileRequest{Source: "function y = f(x)\ny = x;\nend", Params: "real(:,:)", SkipC: true},
				Args:           json.RawMessage("[" + arg + "]"),
			},
			want: http.StatusUnprocessableEntity,
		})
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts, tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}

	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.VMFaults != 1 {
		t.Errorf("vm_faults = %d, want 1 (only the runtime fault case)", m.VMFaults)
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	big := map[string]interface{}{
		"source":  "% " + strings.Repeat("x", maxRequestBytes),
		"kernels": []string{"k"},
		"url":     "http://w",
	}
	limit := strconv.Itoa(maxRequestBytes) + "-byte limit"
	// Each POST endpoint, on a server in a role that routes it.
	for _, tc := range []struct {
		role  Role
		paths []string
	}{
		{RoleSingle, []string{"/compile", "/run", "/dse", "/isx"}},
		{RoleCoordinator, []string{"/fleet/register", "/fleet/deregister"}},
		{RoleWorker, []string{"/fleet/unit"}},
	} {
		s := New(Config{Workers: 1, Role: tc.role})
		ts := httptest.NewServer(s.Handler())
		for _, path := range tc.paths {
			resp, body := postJSON(t, ts, path, big)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s oversized: status %d (%s), want 413", path, resp.StatusCode, body)
			}
			if !strings.Contains(string(body), limit) {
				t.Errorf("%s: 413 body %q does not name the limit", path, body)
			}
		}
		ts.Close()
	}
}

// TestNoCacheStoresResult guards the documented no_cache contract: the
// lookup is bypassed but the fresh artifact is still stored, so the
// next plain request hits.
func TestNoCacheStoresResult(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := CompileRequest{Source: scaleSrc, Params: "real(1,:), real", NoCache: true}
	resp, body := postJSON(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no_cache compile: status %d (%s)", resp.StatusCode, body)
	}
	var first CompileResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("no_cache compile reported a cache hit")
	}

	req.NoCache = false
	resp, body = postJSON(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain compile: status %d (%s)", resp.StatusCode, body)
	}
	var second CompileResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("plain compile after no_cache missed: the bypass result was not stored")
	}
	if second.CacheKey != first.CacheKey {
		t.Errorf("cache keys differ: %s vs %s", first.CacheKey, second.CacheKey)
	}
}

func TestDSECancelStopsEvaluation(t *testing.T) {
	// One worker and many variants so cancellation lands while most of
	// the sweep is still queued.
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := &DSERequest{
		Sweep: &dse.Sweep{
			Widths:  []int{1, 2, 4, 8},
			Complex: []bool{true, false},
			Groups:  [][]string{nil, {"mac"}, {"mac", "cmplx"}, {"cmplx"}},
		},
		Jobs:    1,
		Scale:   0.25,
		Kernels: []string{"fir", "cfir", "iirsos"},
	}
	resp, body := postJSON(t, ts, "/dse", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /dse: status %d: %s", resp.StatusCode, body)
	}
	var acc DSEAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Variants < 8 {
		t.Fatalf("sweep enumerated %d variants, want >= 8", acc.Variants)
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/dse/"+acc.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := ts.Client().Do(del)
	if err != nil {
		t.Fatal(err)
	}
	var cst JobStatus[dse.Report]
	if err := json.NewDecoder(dresp.Body).Decode(&cst); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /dse/%s: status %d", acc.ID, dresp.StatusCode)
	}
	if cst.State != "cancelling" && cst.State != "cancelled" {
		t.Fatalf("state after DELETE = %q, want cancelling/cancelled", cst.State)
	}

	st := waitDSE(t, s, ts, acc.ID)
	if st.State != "cancelled" {
		t.Fatalf("job ended %q (%s), want cancelled", st.State, st.Error)
	}
	if st.Evaluated >= st.Total {
		t.Errorf("cancelled sweep evaluated %d of %d variants; cancellation saved nothing", st.Evaluated, st.Total)
	}
	if st.Report != nil {
		t.Error("cancelled sweep returned a report")
	}

	// Cancelling again (now finished) stays a no-op 200, and an unknown
	// id is 404.
	dresp, err = ts.Client().Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("second DELETE: status %d, want 200", dresp.StatusCode)
	}
	del404, err := http.NewRequest(http.MethodDelete, ts.URL+"/dse/dse-999", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err = ts.Client().Do(del404)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown id: status %d, want 404", dresp.StatusCode)
	}

	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.DSE.Cancelled != 1 {
		t.Errorf("dse cancelled = %d, want 1", m.DSE.Cancelled)
	}
	if m.DSE.Running != 0 {
		t.Errorf("dse running = %d after cancellation, want 0", m.DSE.Running)
	}
}

// TestShutdownCancelsDSEJobs: Server.Shutdown is the daemon's drain
// hook; running sweeps must observe it and stop.
func TestShutdownCancelsDSEJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A big sweep at full scale so it cannot finish in the window
	// between POST and Shutdown, even on a fast machine.
	req := &DSERequest{
		Sweep: &dse.Sweep{
			Widths:  []int{1, 2, 4, 8},
			Complex: []bool{true, false},
			Groups:  [][]string{nil, {"mac"}, {"mac", "cmplx"}, {"cmplx"}},
		},
		Jobs:    1,
		Scale:   1.0,
		Kernels: []string{"fir", "cfir", "iirsos"},
	}
	resp, body := postJSON(t, ts, "/dse", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /dse: status %d: %s", resp.StatusCode, body)
	}
	var acc DSEAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	s.Shutdown()
	st := waitDSE(t, s, ts, acc.ID)
	if st.State != "cancelled" {
		t.Fatalf("job ended %q after Shutdown, want cancelled", st.State)
	}
}
