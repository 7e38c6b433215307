package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mat2c/internal/dse"
)

// smallDSERequest is a quick sweep for endpoint tests: 2 widths x 2
// group sets over two kernels at tiny scale.
func smallDSERequest() *DSERequest {
	return &DSERequest{
		Sweep: &dse.Sweep{
			Widths:  []int{1, 4},
			Complex: []bool{true},
			Groups:  [][]string{nil, {"mac", "cmplx"}},
		},
		Jobs:    2,
		Scale:   0.05,
		Kernels: []string{"fir", "cfir"},
	}
}

// waitDSE waits for s to finish sweep job id and returns its status
// as ts serves it.
func waitDSE(t *testing.T, s *Server, ts *httptest.Server, id string) JobStatus[dse.Report] {
	t.Helper()
	awaitJob(t, s.sweeps, id)
	var st JobStatus[dse.Report]
	getJSON(t, ts, "/dse/"+id, &st)
	return st
}

func TestDSEEndpoint(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/dse", smallDSERequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /dse: status %d: %s", resp.StatusCode, body)
	}
	var acc DSEAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == "" || acc.Status != "/dse/"+acc.ID {
		t.Fatalf("bad accept reply: %+v", acc)
	}
	if acc.Variants < 3 {
		t.Fatalf("sweep enumerated %d variants, want >= 3", acc.Variants)
	}

	st := waitDSE(t, s, ts, acc.ID)
	if st.State != "done" {
		t.Fatalf("job ended %q: %s", st.State, st.Error)
	}
	if st.Evaluated != st.Total || st.Report == nil {
		t.Fatalf("job incomplete: %d/%d, report %v", st.Evaluated, st.Total, st.Report != nil)
	}
	if len(st.Report.Frontier) == 0 {
		t.Error("done job has empty frontier")
	}
	for _, v := range st.Report.Variants {
		if v.Error != "" {
			t.Errorf("variant %s failed: %s", v.Name, v.Error)
		}
	}

	// The job ran through the server's shared cache: a second identical
	// sweep must hit, and the /metrics DSE section must reflect both.
	resp, body = postJSON(t, ts, "/dse", smallDSERequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST /dse: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	st = waitDSE(t, s, ts, acc.ID)
	if st.State != "done" {
		t.Fatalf("second job ended %q: %s", st.State, st.Error)
	}
	if st.Report.CacheHits == 0 {
		t.Error("second identical sweep reported no cache hits")
	}

	var snap Snapshot
	getJSON(t, ts, "/metrics", &snap)
	if snap.DSE.Sweeps != 2 || snap.DSE.Running != 0 {
		t.Errorf("metrics: sweeps=%d running=%d, want 2/0", snap.DSE.Sweeps, snap.DSE.Running)
	}
	if want := uint64(2 * len(st.Report.Variants)); snap.DSE.VariantsEvaluated != want {
		t.Errorf("metrics: variants_evaluated=%d, want %d", snap.DSE.VariantsEvaluated, want)
	}
	if snap.DSE.CacheHitRate <= 0 {
		t.Errorf("metrics: cache_hit_rate=%v, want > 0", snap.DSE.CacheHitRate)
	}
	if snap.DSE.LastFrontierSize != len(st.Report.Frontier) {
		t.Errorf("metrics: last_frontier_size=%d, want %d",
			snap.DSE.LastFrontierSize, len(st.Report.Frontier))
	}
}

func TestDSEEndpointValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unknown sweep axis → 400 (DisallowUnknownFields on the body).
	resp, _ := postJSON(t, ts, "/dse", map[string]interface{}{"widhts": []int{1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misspelled field: status %d, want 400", resp.StatusCode)
	}

	// Unknown base target → 422, synchronously.
	resp, _ = postJSON(t, ts, "/dse", &DSERequest{Procs: []string{"nosuch"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown base: status %d, want 422", resp.StatusCode)
	}

	// Unknown kernel → 422, synchronously.
	resp, _ = postJSON(t, ts, "/dse", &DSERequest{
		Sweep:   &dse.Sweep{Widths: []int{1}, Complex: []bool{false}, Groups: [][]string{nil}},
		Kernels: []string{"nosuch"},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown kernel: status %d, want 422", resp.StatusCode)
	}

	// Unknown job id → 404.
	r, err := ts.Client().Get(ts.URL + "/dse/dse-999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
}
