package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"mat2c/internal/isx"
)

// smallISXRequest mines one kernel on the bare scalar target at tiny
// scale — small enough for endpoint tests, real enough to produce a
// verified fused-multiply-add candidate.
func smallISXRequest() *ISXRequest {
	return &ISXRequest{
		Proc:    "scalar",
		Kernels: []string{"fir"},
		Top:     2,
		Scale:   0.05,
	}
}

// waitISX waits for s to finish mining job id and returns its status
// as ts serves it.
func waitISX(t *testing.T, s *Server, ts *httptest.Server, id string) JobStatus[isx.Report] {
	t.Helper()
	awaitJob(t, s.mines, id)
	var st JobStatus[isx.Report]
	getJSON(t, ts, "/isx/"+id, &st)
	return st
}

func TestISXEndpoint(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var before Snapshot
	getJSON(t, ts, "/metrics", &before)

	resp, body := postJSON(t, ts, "/isx", smallISXRequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /isx: status %d: %s", resp.StatusCode, body)
	}
	var acc JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == "" || acc.Status != "/isx/"+acc.ID {
		t.Fatalf("bad accept reply: %+v", acc)
	}

	st := waitISX(t, s, ts, acc.ID)
	if st.State != "done" {
		t.Fatalf("job ended %q: %s", st.State, st.Error)
	}
	if st.Report == nil || len(st.Report.Candidates) == 0 {
		t.Fatalf("done job has no candidates: %+v", st.Report)
	}
	verified, measured := false, uint64(0)
	for _, c := range st.Report.Candidates {
		for _, d := range c.Deltas {
			if d.Err == "" {
				measured++
			}
			if d.Err == "" && d.Selected > 0 && d.Measured > 0 {
				verified = true
			}
		}
	}
	if !verified {
		t.Error("no candidate verified with a measured saving")
	}

	var snap Snapshot
	getJSON(t, ts, "/metrics", &snap)
	if snap.ISX.Mines != 1 || snap.ISX.Running != 0 {
		t.Errorf("metrics: mines=%d running=%d, want 1/0", snap.ISX.Mines, snap.ISX.Running)
	}
	if snap.ISX.LastCandidates != len(st.Report.Candidates) {
		t.Errorf("metrics: last_candidates=%d, want %d",
			snap.ISX.LastCandidates, len(st.Report.Candidates))
	}
	// Each measured candidate ran once, simulated or priced.
	runs := snap.ISX.Runs.Simulated + snap.ISX.Runs.Priced - before.ISX.Runs.Simulated - before.ISX.Runs.Priced
	if runs < measured || measured == 0 {
		t.Errorf("metrics: %d runs simulated or priced during the mine, want at least its %d measured candidates", runs, measured)
	}
}

func TestISXEndpointValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unknown request field → 400 (DisallowUnknownFields on the body).
	resp, _ := postJSON(t, ts, "/isx", map[string]interface{}{"kernls": []string{"fir"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misspelled field: status %d, want 400", resp.StatusCode)
	}

	// Unknown base target → 422, synchronously.
	resp, _ = postJSON(t, ts, "/isx", &ISXRequest{Proc: "nosuch"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown base: status %d, want 422", resp.StatusCode)
	}

	// Unknown kernel → 422, synchronously.
	resp, _ = postJSON(t, ts, "/isx", &ISXRequest{Proc: "scalar", Kernels: []string{"nosuch"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown kernel: status %d, want 422", resp.StatusCode)
	}

	// Unknown job id → 404.
	r, err := ts.Client().Get(ts.URL + "/isx/isx-999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
}

func TestISXCancel(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A full-suite mine at default scale is slow enough to catch mid-run.
	resp, body := postJSON(t, ts, "/isx", &ISXRequest{Proc: "scalar"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /isx: status %d: %s", resp.StatusCode, body)
	}
	var acc JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/isx/"+acc.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus[isx.Report]
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.State != "cancelling" && st.State != "cancelled" && st.State != "done" {
		t.Fatalf("DELETE reply state %q", st.State)
	}

	st = waitISX(t, s, ts, acc.ID)
	if st.State != "cancelled" && st.State != "done" {
		t.Fatalf("job ended %q: %s", st.State, st.Error)
	}

	// Cancelling a finished job is a no-op that reports its final state.
	r, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	final := st.State
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.State != final {
		t.Errorf("cancel after finish: state %q, want %q", st.State, final)
	}
}

// TestMetricsJobSections pins the keys of the /metrics dse and isx
// sections, and of the isx section's runs.
func TestMetricsJobSections(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()
	var snap map[string]json.RawMessage
	getJSON(t, ts, "/metrics", &snap)
	var isxSection map[string]json.RawMessage
	if err := json.Unmarshal(snap["isx"], &isxSection); err != nil {
		t.Fatal(err)
	}
	for section, want := range map[string]string{
		"dse":      "[cache_hit_rate cache_hits cache_lookups cancelled failures last_frontier_size running sweeps variants_evaluated]",
		"isx":      "[cancelled failures last_candidates mines running runs]",
		"isx.runs": "[priced simulated]",
	} {
		raw := snap[section]
		if section == "isx.runs" {
			raw = isxSection["runs"]
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		var keys []string
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := fmt.Sprint(keys); got != want {
			t.Errorf("/metrics %s keys %s, want %s", section, got, want)
		}
	}
}
