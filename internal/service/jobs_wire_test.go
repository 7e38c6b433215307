package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"mat2c/internal/artifact"
	"mat2c/internal/dse"
)

var update = flag.Bool("update", false, "rewrite testdata/jobs_wire.golden with current output")

// The async job endpoints' wire format, byte for byte: every reply of
// POST, GET and DELETE on /dse and /isx, in every job state, is written
// to a transcript and compared against testdata/jobs_wire.golden. Only
// a report's elapsed_us (wall time) is masked. Each job is driven into
// its state by something the test controls — a store tier that holds
// the only sweep worker, or a fleet worker that holds or rejects every
// unit — and the transcript is taken once the state is observed, never
// after a sleep.

// transcript records exchanges with one server.
type transcript struct {
	t   *testing.T
	ts  *httptest.Server
	out *bytes.Buffer
}

var elapsedRE = regexp.MustCompile(`("elapsed_us": )\d+`)

// do sends one request, records it with its status and masked body, and
// returns the unmasked body.
func (tr *transcript) do(method, path string, body interface{}) []byte {
	tr.t.Helper()
	status, data := send(tr.t, tr.ts, method, path, body)
	fmt.Fprintf(tr.out, "> %s %s\n< %d\n%s", method, path, status,
		elapsedRE.ReplaceAll(data, []byte("${1}0")))
	return data
}

// send issues one request and returns its status and body.
func send(t *testing.T, ts *httptest.Server, method, path string, body interface{}) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// awaitJob blocks until r has finished job id: recorded its outcome
// and retired the finished jobs beyond the cap.
func awaitJob[R any](t *testing.T, r *jobs[R], id string) {
	t.Helper()
	r.mu.Lock()
	j := r.byID[id]
	r.mu.Unlock()
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	await(t, j.settled, "job "+id+" finishing")
}

// await blocks until ch is closed.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s never happened", what)
	}
}

// gateStore is a store tier whose every Get blocks until release is
// closed and then misses. The first Get closes entered, so a test knows
// the sweep's only worker is held inside a compile lookup, where
// cancellation cannot reach it.
type gateStore struct {
	entered, release chan struct{}
	once             sync.Once
}

func newGateStore() *gateStore {
	return &gateStore{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateStore) Get(string) ([]byte, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return nil, artifact.ErrNotFound
}
func (g *gateStore) Put(string, []byte) error { return nil }
func (g *gateStore) Delete(string) error      { return artifact.ErrNotFound }
func (g *gateStore) Len() (int, error)        { return 0, nil }

// fakeWorker is a fleet worker that never runs a unit. With reject set
// it refuses every unit with 422, which fails the run; otherwise it
// holds every unit until the dispatcher gives up on it. The first unit
// closes entered.
type fakeWorker struct {
	*httptest.Server
	entered chan struct{}
	once    sync.Once
}

func newFakeWorker(t *testing.T, reject bool) *fakeWorker {
	w := &fakeWorker{entered: make(chan struct{})}
	w.Server = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // lets the server see the dispatcher hang up
		w.once.Do(func() { close(w.entered) })
		if reject {
			rw.WriteHeader(http.StatusUnprocessableEntity)
			io.WriteString(rw, `{"error": "unit refused by the test worker"}`)
			return
		}
		<-r.Context().Done()
	}))
	t.Cleanup(w.Close)
	return w
}

// coordinatorWith starts a coordinator whose only worker is w.
func coordinatorWith(t *testing.T, w *fakeWorker) (*Server, *httptest.Server) {
	s := New(Config{Workers: 1, Role: RoleCoordinator})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	s.Fleet().Register(w.URL, 1)
	return s, ts
}

func wireSweep(widths ...int) *DSERequest {
	return &DSERequest{
		Sweep:   &dse.Sweep{Widths: widths, Complex: []bool{false}, Groups: [][]string{nil}},
		Jobs:    1,
		Scale:   0.05,
		Kernels: []string{"fir"},
	}
}

func TestJobWireFormat(t *testing.T) {
	var out bytes.Buffer
	section := func(name string) { fmt.Fprintf(&out, "\n### %s\n", name) }

	section("dse: running, cancelling, cancelled")
	func() {
		gate := newGateStore()
		s := New(Config{Workers: 1, Store: gate})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		tr := &transcript{t, ts, &out}
		tr.do("POST", "/dse", wireSweep(1))
		await(t, gate.entered, "the sweep's first store lookup")
		tr.do("GET", "/dse/dse-1", nil)
		tr.do("GET", "/dse", nil)
		tr.do("DELETE", "/dse/dse-1", nil)
		tr.do("GET", "/dse/dse-1", nil)
		close(gate.release)
		awaitJob(t, s.sweeps, "dse-1")
		tr.do("GET", "/dse/dse-1", nil)
		tr.do("GET", "/dse", nil)
	}()

	section("dse: done")
	func() {
		s := New(Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		tr := &transcript{t, ts, &out}
		tr.do("POST", "/dse", wireSweep(1, 4))
		awaitJob(t, s.sweeps, "dse-1")
		tr.do("GET", "/dse/dse-1", nil)
		tr.do("DELETE", "/dse/dse-1", nil)
		tr.do("GET", "/dse", nil)
		tr.do("GET", "/dse/dse-2", nil)
		tr.do("DELETE", "/dse/nosuch", nil)
	}()

	section("dse: failed")
	func() {
		s, ts := coordinatorWith(t, newFakeWorker(t, true))
		tr := &transcript{t, ts, &out}
		tr.do("POST", "/dse", wireSweep(1))
		awaitJob(t, s.sweeps, "dse-1")
		tr.do("GET", "/dse/dse-1", nil)
		tr.do("GET", "/dse", nil)
	}()

	section("isx: running, cancelling, cancelled")
	// A fleet worker holds the mine in verification, but nothing holds
	// it once cancelled: the DELETE reply reads "cancelling" unless the
	// job has already wound down, so an attempt that saw it finish
	// first is discarded and repeated on a fresh coordinator.
	for attempt := 1; ; attempt++ {
		var run bytes.Buffer
		w := newFakeWorker(t, false)
		s, ts := coordinatorWith(t, w)
		tr := &transcript{t, ts, &run}
		tr.do("POST", "/isx", smallISXRequest())
		await(t, w.entered, "the mine's first verification unit")
		tr.do("GET", "/isx/isx-1", nil)
		tr.do("GET", "/isx", nil)
		var st struct{ State string }
		if err := json.Unmarshal(tr.do("DELETE", "/isx/isx-1", nil), &st); err != nil {
			t.Fatal(err)
		}
		awaitJob(t, s.mines, "isx-1")
		tr.do("GET", "/isx/isx-1", nil)
		tr.do("GET", "/isx", nil)
		if st.State == "cancelling" {
			out.Write(run.Bytes())
			break
		}
		if attempt == 5 {
			t.Fatalf("the DELETE reply never read cancelling in %d attempts (last %q)", attempt, st.State)
		}
	}

	section("isx: done")
	func() {
		s := New(Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		tr := &transcript{t, ts, &out}
		tr.do("POST", "/isx", smallISXRequest())
		awaitJob(t, s.mines, "isx-1")
		tr.do("GET", "/isx/isx-1", nil)
		tr.do("DELETE", "/isx/isx-1", nil)
		tr.do("GET", "/isx", nil)
		tr.do("GET", "/isx/isx-2", nil)
		tr.do("DELETE", "/isx/nosuch", nil)
	}()

	section("isx: failed")
	func() {
		s, ts := coordinatorWith(t, newFakeWorker(t, true))
		tr := &transcript{t, ts, &out}
		// One candidate, so one unit: the one the failure names.
		tr.do("POST", "/isx", &ISXRequest{Proc: "scalar", Kernels: []string{"fir"}, Top: 1, Scale: 0.05})
		awaitJob(t, s.mines, "isx-1")
		tr.do("GET", "/isx/isx-1", nil)
		tr.do("GET", "/isx", nil)
	}()

	golden := filepath.Join("testdata", "jobs_wire.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range got {
			if i >= len(wantLines) || !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("job replies differ from %s at line %d:\n got: %s", golden, i+1, got[i])
			}
		}
		t.Fatalf("job replies end early: %d lines, %s has %d", len(got), golden, len(wantLines))
	}
}

// TestDSEJobRegistryBounded and TestISXJobRegistryBounded: each job
// kind keeps at most 32 finished jobs, dropping the oldest first, as
// its GET list shows.
func TestDSEJobRegistryBounded(t *testing.T) {
	s := New(Config{Workers: 2})
	checkRetention(t, s, s.sweeps, wireSweep(1))
}

func TestISXJobRegistryBounded(t *testing.T) {
	s := New(Config{Workers: 2})
	checkRetention(t, s, s.mines, &ISXRequest{Proc: "scalar", Kernels: []string{"fir"}, Scale: 0.05, NoVerify: true})
}

// checkRetention submits jobs to s's registry r one at a time, each
// once the last has finished, and checks the list r serves.
func checkRetention[R any](t *testing.T, s *Server, r *jobs[R], body interface{}) {
	const retained, submitted = 32, 40
	kind := r.kind
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 1; i <= submitted; i++ {
		if status, data := send(t, ts, "POST", "/"+kind, body); status != http.StatusAccepted {
			t.Fatalf("POST %d: status %d: %s", i, status, data)
		}
		awaitJob(t, r, fmt.Sprintf("%s-%d", kind, i))
	}
	var want []string
	for i := submitted - retained + 1; i <= submitted; i++ {
		want = append(want, fmt.Sprintf("%s-%d", kind, i))
	}
	// Each job retires the oldest beyond the cap before it settles.
	var list struct {
		Jobs []struct{ ID, State string }
	}
	getJSON(t, ts, "/"+kind, &list)
	var got []string
	for _, j := range list.Jobs {
		if j.State != "done" {
			t.Fatalf("job %s is %s", j.ID, j.State)
		}
		got = append(got, j.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("GET /%s lists %v, want %v", kind, got, want)
	}
	if status, _ := send(t, ts, "GET", fmt.Sprintf("/%s/%s-1", kind, kind), nil); status != http.StatusNotFound {
		t.Errorf("the oldest job is still served (status %d)", status)
	}
}
