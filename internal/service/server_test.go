package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	mat2c "mat2c"
	"mat2c/internal/core"
)

const scaleSrc = `function y = scale(x, a)
y = a .* x + 1;
end`

func postJSON(t *testing.T, ts *httptest.Server, path string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out interface{}) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

func TestCompileCacheHitMissAndMetrics(t *testing.T) {
	// The stage counts below are of compiles that ran: a compile an
	// earlier test left in the process-wide memos would run no stage.
	core.ResetMemos()
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := CompileRequest{Source: scaleSrc, Params: "real(1,:), real", Target: "dspasip"}

	resp, body := postJSON(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first compile: status %d: %s", resp.StatusCode, body)
	}
	var first CompileResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first compile reported a cache hit")
	}
	if first.CSource == "" || first.CHeader == "" {
		t.Error("first compile missing C artifacts")
	}
	if first.Entry != "scale" {
		t.Errorf("entry = %q, want scale", first.Entry)
	}
	if len(first.StagesUS) == 0 {
		t.Error("miss response missing stages_us")
	}
	for _, stage := range mat2c.StageNames() {
		if _, ok := first.StagesUS[stage]; !ok {
			t.Errorf("stages_us missing stage %q", stage)
		}
	}

	resp, body = postJSON(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second compile: status %d: %s", resp.StatusCode, body)
	}
	var second CompileResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical second compile was not a cache hit")
	}
	if second.CacheKey != first.CacheKey {
		t.Errorf("cache keys differ across identical requests: %s vs %s", first.CacheKey, second.CacheKey)
	}
	if second.CSource != first.CSource || second.CHeader != first.CHeader {
		t.Error("cache hit returned different artifacts")
	}

	// A different target must miss with a different key.
	req2 := req
	req2.Target = "scalar"
	_, body = postJSON(t, ts, "/compile", req2)
	var third CompileResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Error("different target reported a cache hit")
	}
	if third.CacheKey == first.CacheKey {
		t.Error("different target produced the same cache key")
	}

	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Cache.Hits != 1 || m.Cache.Misses != 2 {
		t.Errorf("cache stats = %+v, want 1 hit / 2 misses", m.Cache)
	}
	if m.Compiles != 3 || m.CompileHits != 1 {
		t.Errorf("compiles = %d (hits %d), want 3 (1)", m.Compiles, m.CompileHits)
	}
	if got := m.Requests["compile"].Count; got != 3 {
		t.Errorf("request count = %d, want 3", got)
	}
	parse, ok := m.Stages["parse"]
	if !ok || parse.Count != 2 {
		t.Errorf("parse stage histogram = %+v, want count 2 (misses only)", parse)
	}
	if cgen := m.Stages["cgen"]; cgen.TotalUS < 0 || cgen.Count != 2 {
		t.Errorf("cgen stage histogram = %+v, want count 2", cgen)
	}
}

// TestMemoServedCompileRecordsNoStages: a compile the back-half memo
// served is a miss of the server's own cache that ran no stage, so it
// counts among compiles but leaves every stage histogram alone.
func TestMemoServedCompileRecordsNoStages(t *testing.T) {
	core.ResetMemos()
	req := CompileRequest{Source: scaleSrc, Params: "real(1,:), real", Target: "dspasip"}
	var snaps [2]Snapshot
	for i := range snaps {
		s := New(Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		if resp, body := postJSON(t, ts, "/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, resp.StatusCode, body)
		}
		getJSON(t, ts, "/metrics", &snaps[i])
		ts.Close()
	}
	if parse := snaps[0].Stages["parse"]; parse.Count != 1 {
		t.Errorf("first server: parse histogram %+v, want count 1", parse)
	}
	second := snaps[1]
	if second.Compiles != 1 || second.CompileHits != 0 || second.Cache.Misses != 1 {
		t.Errorf("second server: compiles %d (hits %d), cache misses %d; want 1 (0), 1", second.Compiles, second.CompileHits, second.Cache.Misses)
	}
	for stage, h := range second.Stages {
		if h.Count != 0 {
			t.Errorf("second server: stage %q histogram %+v, want count 0", stage, h)
		}
	}
	if len(second.Stages) == 0 {
		t.Error("second server: no stage histograms")
	}
}

func TestRunEndpoint(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RunRequest{
		CompileRequest: CompileRequest{
			Source: scaleSrc,
			Params: "real(1,:), real",
			Target: "dspasip",
			SkipC:  true,
		},
		Args: json.RawMessage(`[[1, 2, 3, 4], 2.5]`),
	}
	resp, body := postJSON(t, ts, "/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: status %d: %s", resp.StatusCode, body)
	}
	var rr struct {
		RunResponse
		Results []struct {
			Rows int       `json:"rows"`
			Cols int       `json:"cols"`
			Data []float64 `json:"data"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Cycles <= 0 || rr.Instructions <= 0 {
		t.Errorf("cycles=%d instructions=%d, want positive", rr.Cycles, rr.Instructions)
	}
	if len(rr.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(rr.Results))
	}
	want := []float64{3.5, 6, 8.5, 11}
	got := rr.Results[0].Data
	if rr.Results[0].Rows != 1 || rr.Results[0].Cols != 4 || len(got) != 4 {
		t.Fatalf("result shape %dx%d (%d values), want 1x4", rr.Results[0].Rows, rr.Results[0].Cols, len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("result[%d] = %g, want %g", i, got[i], want[i])
		}
	}

	// A second /run of the same program must reuse the compiled
	// artifact.
	_, body = postJSON(t, ts, "/run", req)
	var again RunResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("second /run of identical program was not a cache hit")
	}

	// /metrics must expose the simulator section: the translation the
	// two runs populated.
	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.VM.Compiled.Translations == 0 {
		t.Errorf("compiled = %+v, want at least one translation after /run", m.VM.Compiled)
	}
}

func TestCompileErrorsAndBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Malformed body.
	resp, err := ts.Client().Post(ts.URL+"/compile", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Missing source.
	resp, _ = postJSON(t, ts, "/compile", CompileRequest{Params: "real"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing source: status %d, want 400", resp.StatusCode)
	}

	// Invalid MATLAB.
	resp, body := postJSON(t, ts, "/compile", CompileRequest{Source: "function y = f(x)\ny = ((x;\nend"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad MATLAB: status %d (%s), want 422", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("error body %q not a JSON error document", body)
	}

	// Unknown target.
	resp, _ = postJSON(t, ts, "/compile", CompileRequest{Source: scaleSrc, Params: "real(1,:), real", Target: "no-such-proc"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown target: status %d, want 422", resp.StatusCode)
	}

	// Wrong argument count on /run.
	resp, _ = postJSON(t, ts, "/run", RunRequest{
		CompileRequest: CompileRequest{Source: scaleSrc, Params: "real(1,:), real", SkipC: true},
		Args:           json.RawMessage(`[[1,2,3]]`),
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad args: status %d, want 422", resp.StatusCode)
	}

	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Requests["compile"].Errors < 3 {
		t.Errorf("compile error count = %d, want >= 3", m.Requests["compile"].Errors)
	}
}

func TestRequestTimeout(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only worker slot so the request can never start.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	begin := time.Now()
	resp, body := postJSON(t, ts, "/compile", CompileRequest{Source: scaleSrc, Params: "real(1,:), real"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool: status %d (%s), want 503", resp.StatusCode, body)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Errorf("timeout took %s, want ~50ms", elapsed)
	}

	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Requests["compile"].Timeouts != 1 {
		t.Errorf("timeout count = %d, want 1", m.Requests["compile"].Timeouts)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := New(Config{Workers: 1})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	// A compute route whose work function always panics, sharing the
	// real worker/timeout/recovery path.
	mux.HandleFunc("POST /boom", func(w http.ResponseWriter, r *http.Request) {
		s.serveCompute(w, r, "boom", func(context.Context, *RunRequest) ([]byte, error) {
			panic("kaboom")
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/boom", CompileRequest{Source: "x"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "kaboom") {
		t.Errorf("error body %q does not mention the panic", body)
	}

	// The worker slot must have been released: a normal compile still
	// succeeds.
	resp, body = postJSON(t, ts, "/compile", CompileRequest{Source: scaleSrc, Params: "real(1,:), real"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile after panic: status %d (%s), want 200", resp.StatusCode, body)
	}

	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Requests["boom"].Panics != 1 {
		t.Errorf("panic count = %d, want 1", m.Requests["boom"].Panics)
	}
}

func TestTargetsAndHealthz(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var tr struct {
		Targets []TargetInfo `json:"targets"`
	}
	getJSON(t, ts, "/targets", &tr)
	if len(tr.Targets) != len(mat2c.Targets()) {
		t.Fatalf("got %d targets, want %d", len(tr.Targets), len(mat2c.Targets()))
	}
	found := false
	for _, ti := range tr.Targets {
		if ti.Name == "dspasip" {
			found = true
			if ti.SIMDWidth != 4 || ti.Instructions == 0 {
				t.Errorf("dspasip catalog entry %+v looks wrong", ti)
			}
		}
	}
	if !found {
		t.Error("catalog missing dspasip")
	}

	var h struct {
		Status string `json:"status"`
	}
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", h.Status)
	}
}

func TestConcurrentRequestsUnderRace(t *testing.T) {
	s := New(Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	targets := []string{"dspasip", "scalar", "wide8", "nosimd"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := CompileRequest{
				Source: scaleSrc,
				Params: "real(1,:), real",
				Target: targets[i%len(targets)],
			}
			data, _ := json.Marshal(req)
			resp, err := ts.Client().Post(ts.URL+"/compile", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A client can read its response before the handler's deferred
	// metrics update runs. Closing the server waits for every handler
	// to return, so a fresh listener's snapshot sees all 16 requests.
	ts.Close()
	ts = httptest.NewServer(s.Handler())
	defer ts.Close()
	var m Snapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Requests["compile"].Count != 16 {
		t.Errorf("request count = %d, want 16", m.Requests["compile"].Count)
	}
	if m.InFlight != 0 {
		t.Errorf("inflight = %d after drain, want 0", m.InFlight)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	s := New(Config{Workers: 2})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	mux.HandleFunc("POST /slow", func(w http.ResponseWriter, r *http.Request) {
		s.serveCompute(w, r, "slow", func(context.Context, *RunRequest) ([]byte, error) {
			started <- struct{}{}
			<-release
			return []byte(`{"ok": "true"}`), nil
		})
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Start()

	result := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/slow", "application/json", strings.NewReader(`{"source":"x"}`))
		if err != nil {
			result <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			result <- fmt.Errorf("slow request: status %d", resp.StatusCode)
			return
		}
		result <- nil
	}()
	<-started

	// Shutdown must wait for the in-flight request once it is released.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- ts.Config.Shutdown(ctx)
	}()

	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-result; err != nil {
		t.Errorf("in-flight request failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestCompileMemoMetrics: a compile that misses a fresh server's cache
// but repeats an earlier compile in the same process is served by the
// back-half memo — its stage times are all zero — and /metrics reports
// it under compile_memo, with the back memo's stored compiles, the
// shape keys they are filed under and its waits counted separately.
func TestCompileMemoMetrics(t *testing.T) {
	req := CompileRequest{Source: scaleSrc + "\n% compile memo metrics", Params: "real(1,:), real", Target: "dspasip"}
	compile := func() (CompileResponse, Snapshot) {
		ts := httptest.NewServer(New(Config{}).Handler())
		defer ts.Close()
		resp, body := postJSON(t, ts, "/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile: status %d: %s", resp.StatusCode, body)
		}
		var cr CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.CacheHit {
			t.Fatal("compile hit a fresh server's cache")
		}
		var m Snapshot
		getJSON(t, ts, "/metrics", &m)
		return cr, m
	}
	_, before := compile()
	cr, after := compile()
	for stage, us := range cr.StagesUS {
		if us != 0 {
			t.Errorf("back-memo compile reports %s = %d µs, want 0", stage, us)
		}
	}
	memo := after.CompileMemo
	if memo.Back.Capacity != 64 || memo.Front.Capacity != 64 {
		t.Errorf("compile_memo capacities %+v, want 64", memo)
	}
	if memo.Back.Hits <= before.CompileMemo.Back.Hits || memo.Back.Entries == 0 {
		t.Errorf("compile_memo.back %+v after a repeated compile (before %+v), want one more hit",
			memo.Back, before.CompileMemo.Back)
	}
	if memo.Back.Shapes == 0 || memo.Back.Shapes > memo.Back.Entries || memo.Back.Shapes > memo.Back.Capacity {
		t.Errorf("compile_memo.back %+v: want 1 to min(entries, capacity) shape keys", memo.Back)
	}
	var raw struct {
		CompileMemo struct {
			Back map[string]json.RawMessage `json:"back"`
		} `json:"compile_memo"`
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	getJSON(t, ts, "/metrics", &raw)
	for _, field := range []string{"entries", "shapes", "capacity", "hits", "misses", "waits"} {
		if _, ok := raw.CompileMemo.Back[field]; !ok {
			t.Errorf("/metrics compile_memo.back lacks %q: %v", field, raw.CompileMemo.Back)
		}
	}
}
