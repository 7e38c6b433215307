package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mat2c/internal/dse"
	"mat2c/internal/fleet"
	"mat2c/internal/isx"
)

// fastFleetConfig shards one variant per unit, so small sweeps spread
// over every worker.
func fastFleetConfig() fleet.Config {
	return fleet.Config{UnitSize: 1}
}

// newCoordinator boots a coordinator-role server.
func newCoordinator(t *testing.T, fcfg fleet.Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, Role: RoleCoordinator, Fleet: fcfg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newWorker boots a worker-role server and enrolls it with the
// coordinator through the real registration endpoint. wrap, when set,
// interposes on the worker's handler (fault injection).
func newWorker(t *testing.T, coord *httptest.Server, cfg Config, wrap func(http.Handler) http.Handler) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Role = RoleWorker
	s := New(cfg)
	h := http.Handler(s.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	a := &fleet.Agent{Coordinator: coord.URL, Self: ts.URL, Slots: s.cfg.SweepSlots}
	if _, err := a.RegisterOnce(context.Background()); err != nil {
		t.Fatalf("register worker: %v", err)
	}
	return s, ts
}

func runDSE(t *testing.T, s *Server, ts *httptest.Server, req *DSERequest) JobStatus[dse.Report] {
	t.Helper()
	resp, body := postJSON(t, ts, "/dse", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /dse: status %d: %s", resp.StatusCode, body)
	}
	var acc DSEAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	return waitDSE(t, s, ts, acc.ID)
}

// identity returns rep's dse.Report.Identity.
func identity(t *testing.T, rep *dse.Report) []byte {
	t.Helper()
	if rep == nil {
		t.Fatal("job has no report")
	}
	id, err := rep.Identity()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestFleetShardedSweepMatchesSingleProcess is the end-to-end
// acceptance path: the same sweep through a coordinator + two workers
// and through a standalone daemon must yield reports of one identity
// (dse.Report.Identity).
func TestFleetShardedSweepMatchesSingleProcess(t *testing.T) {
	coordSvc, coord := newCoordinator(t, fastFleetConfig())
	newWorker(t, coord, Config{Workers: 2}, nil)
	newWorker(t, coord, Config{Workers: 2}, nil)

	single := New(Config{Workers: 2})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	shardedSt := runDSE(t, coordSvc, coord, smallDSERequest())
	if shardedSt.State != "done" {
		t.Fatalf("sharded job ended %q: %s", shardedSt.State, shardedSt.Error)
	}
	singleSt := runDSE(t, single, singleTS, smallDSERequest())
	if singleSt.State != "done" {
		t.Fatalf("single job ended %q: %s", singleSt.State, singleSt.Error)
	}

	sharded, plain := identity(t, shardedSt.Report), identity(t, singleSt.Report)
	if !bytes.Equal(sharded, plain) {
		t.Errorf("sharded report differs from single-process report\nsharded: %s\nsingle:  %s", sharded, plain)
	}

	// GET /dse lists the finished job without its report.
	var list JobList
	getJSON(t, coord, "/dse", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].State != "done" || list.Jobs[0].Status != "/dse/"+list.Jobs[0].ID {
		t.Errorf("GET /dse = %+v, want one done job", list.Jobs)
	}

	// GET /fleet reports both workers and the dispatch counters.
	var st FleetStatus
	getJSON(t, coord, "/fleet", &st)
	if st.Role != "coordinator" || st.Coordinator == nil {
		t.Fatalf("GET /fleet role = %q, coordinator %v", st.Role, st.Coordinator != nil)
	}
	if st.Coordinator.Alive != 2 {
		t.Errorf("workers_alive = %d, want 2", st.Coordinator.Alive)
	}
	if st.Coordinator.UnitsCompleted == 0 || st.Coordinator.UnitsCompleted != st.Coordinator.UnitsDispatched-st.Coordinator.UnitsRetried-st.Coordinator.UnitsShed {
		t.Errorf("unit counters inconsistent: %+v", st.Coordinator)
	}
	if coordSvc.Fleet() == nil {
		t.Error("coordinator server exposes no fleet")
	}
}

// TestFleetWorkerKillMidSweep kills one worker mid-sweep at the HTTP
// layer and verifies re-dispatch completes the job with a report
// identical to a healthy single-process run.
func TestFleetWorkerKillMidSweep(t *testing.T) {
	coordSvc, coord := newCoordinator(t, fastFleetConfig())

	// The dying worker serves one unit, then aborts every further
	// connection — a crash mid-sweep as the coordinator sees one.
	var served atomic.Int32
	newWorker(t, coord, Config{Workers: 2}, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/fleet/unit" && served.Add(1) > 1 {
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	})
	newWorker(t, coord, Config{Workers: 2}, nil)

	single := New(Config{Workers: 2})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	shardedSt := runDSE(t, coordSvc, coord, smallDSERequest())
	if shardedSt.State != "done" {
		t.Fatalf("job ended %q: %s", shardedSt.State, shardedSt.Error)
	}
	singleSt := runDSE(t, single, singleTS, smallDSERequest())

	sharded, plain := identity(t, shardedSt.Report), identity(t, singleSt.Report)
	if !bytes.Equal(sharded, plain) {
		t.Errorf("post-worker-loss report differs from single-process report\nsharded: %s\nsingle:  %s", sharded, plain)
	}

	var st FleetStatus
	getJSON(t, coord, "/fleet", &st)
	if st.Coordinator.UnitsRetried == 0 {
		t.Error("worker kill produced no redispatches")
	}
	if st.Coordinator.Alive != 1 {
		t.Errorf("workers_alive = %d, want 1 (the killed one lost)", st.Coordinator.Alive)
	}
}

// TestFleetISXMatchesSingleProcess: the sharded verification pass must
// reproduce the standalone mining report byte for byte.
func TestFleetISXMatchesSingleProcess(t *testing.T) {
	coordSvc, coord := newCoordinator(t, fastFleetConfig())
	newWorker(t, coord, Config{Workers: 2}, nil)

	single := New(Config{Workers: 2})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	post := func(s *Server, ts *httptest.Server) JobStatus[isx.Report] {
		resp, body := postJSON(t, ts, "/isx", smallISXRequest())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /isx: status %d: %s", resp.StatusCode, body)
		}
		var acc JobAccepted
		if err := json.Unmarshal(body, &acc); err != nil {
			t.Fatal(err)
		}
		return waitISX(t, s, ts, acc.ID)
	}
	shardedSt := post(coordSvc, coord)
	if shardedSt.State != "done" {
		t.Fatalf("sharded mine ended %q: %s", shardedSt.State, shardedSt.Error)
	}
	singleSt := post(single, singleTS)

	sharded, _ := json.Marshal(shardedSt.Report)
	plain, _ := json.Marshal(singleSt.Report)
	if !bytes.Equal(sharded, plain) {
		t.Errorf("sharded ISX report differs\nsharded: %s\nsingle:  %s", sharded, plain)
	}

	// GET /isx lists the finished mine.
	var list JobList
	getJSON(t, coord, "/isx", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].State != "done" || list.Jobs[0].Status != "/isx/"+list.Jobs[0].ID {
		t.Errorf("GET /isx = %+v, want one done job", list.Jobs)
	}
}

// TestFleetShutdownMidSweep: Shutdown in coordinator mode must cancel
// the running sweep AND wait for dispatched-but-unacked units to
// settle before returning — no RPC left dangling.
func TestFleetShutdownMidSweep(t *testing.T) {
	fcfg := fastFleetConfig()
	coordSvc, coord := newCoordinator(t, fcfg)

	// A worker that never answers: every unit RPC hangs until the
	// coordinator's dispatch context is cancelled. The body must be
	// drained first — the server only notices the peer going away (and
	// cancels r.Context()) once the request body is consumed. It
	// reports each unit that arrives.
	arrived := make(chan struct{}, 1)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}))
	defer hung.Close()
	a := &fleet.Agent{Coordinator: coord.URL, Self: hung.URL, Slots: 1}
	if _, err := a.RegisterOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, coord, "/dse", smallDSERequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /dse: status %d: %s", resp.StatusCode, body)
	}
	var acc DSEAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	// Wait until a unit reaches the hung worker. The coordinator counts
	// an RPC in flight before it sends the unit and until the RPC
	// settles, so the unit's arrival means one is in flight.
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("no unit RPC ever reached the hung worker")
	}
	if st := coordSvc.Fleet().Status(); st.InflightRPCs == 0 {
		t.Fatal("a unit reached the hung worker with no RPC in flight")
	}

	begin := time.Now()
	coordSvc.Shutdown()
	took := time.Since(begin)
	if took > shutdownGrace+2*time.Second {
		t.Fatalf("Shutdown took %v, want within the %v grace period", took, shutdownGrace)
	}

	// Every dispatched RPC settled (the cancellation propagated through
	// the workers' request contexts); nothing was abandoned silently.
	st := coordSvc.Fleet().Status()
	if st.InflightRPCs != 0 {
		t.Errorf("inflight_rpcs = %d after Shutdown, want 0", st.InflightRPCs)
	}

	// The job observed the cancellation.
	jobSt := waitDSE(t, coordSvc, coord, acc.ID)
	if jobSt.State != "cancelled" && jobSt.State != "failed" {
		t.Errorf("job state %q after shutdown, want cancelled or failed", jobSt.State)
	}
}

// TestSweepQueueBackpressure: a full sweep queue sheds POST /fleet/unit
// with 503 + Retry-After and counts the shed in /metrics; a free queue
// executes the unit.
func TestSweepQueueBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, Role: RoleWorker, SweepSlots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the whole bounded queue (slots + backlog).
	for i := 0; i < cap(s.sweepAdmit); i++ {
		s.sweepAdmit <- struct{}{}
	}

	unit := oneVariantUnit(t)
	resp, body := postJSON(t, ts, "/fleet/unit", unit)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue: status %d: %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 shed carries no Retry-After header")
	}

	var snap Snapshot
	getJSON(t, ts, "/metrics", &snap)
	if snap.QueueShed["sweep"] != 1 {
		t.Errorf("queue_shed[sweep] = %d, want 1", snap.QueueShed["sweep"])
	}

	// Drain the queue: the same unit now executes.
	for i := 0; i < cap(s.sweepAdmit); i++ {
		<-s.sweepAdmit
	}
	resp, body = postJSON(t, ts, "/fleet/unit", unit)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("free queue: status %d: %s, want 200", resp.StatusCode, body)
	}
	res, err := fleet.ReadResult(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != unit.ID || len(res.DSE) != 1 {
		t.Errorf("unit result = %+v, want id %s with one variant", res, unit.ID)
	}

	// GET /fleet on a worker reports the queue shape.
	var st FleetStatus
	getJSON(t, ts, "/fleet", &st)
	if st.Role != "worker" || st.Sweep == nil || st.Sweep.Slots != 1 || st.Sweep.Queue != 2 {
		t.Errorf("GET /fleet = %+v, want worker role with slots/queue 1/2", st)
	}
}

// TestComputeQueueShedRetryAfter: the interactive pool's busy 503 also
// carries Retry-After and bumps the queue_shed counter.
func TestComputeQueueShedRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 150 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only worker slot so the request times out queueing.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	resp, body := postJSON(t, ts, "/compile", CompileRequest{Source: scaleSrc, Params: "real(1,:), real", Target: "scalar"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("busy pool: status %d: %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("busy-pool 503 carries no Retry-After header")
	}
	var snap Snapshot
	getJSON(t, ts, "/metrics", &snap)
	if snap.QueueShed["compile"] != 1 {
		t.Errorf("queue_shed[compile] = %d, want 1", snap.QueueShed["compile"])
	}
}

// TestFleetUnitRejectsBadUnit: an unparseable unit is a permanent 422,
// not a retryable failure.
func TestFleetUnitRejectsBadUnit(t *testing.T) {
	s := New(Config{Workers: 1, Role: RoleWorker})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/fleet/unit", fleet.Unit{ID: "dse-bad", Kind: "dse", DSE: &fleet.DSEUnit{
		Variants: []fleet.DSEVariant{{Index: 0, Proc: json.RawMessage(`[1,2,3]`)}},
	}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad unit: status %d: %s, want 422", resp.StatusCode, body)
	}
}

// TestFleetRoleRouting: fleet endpoints exist only for the matching
// role, and a single-role daemon still answers GET /fleet.
func TestFleetRoleRouting(t *testing.T) {
	single := New(Config{Workers: 1})
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()

	var st FleetStatus
	getJSON(t, ts, "/fleet", &st)
	if st.Role != "single" || st.Coordinator != nil || st.Sweep != nil {
		t.Errorf("single GET /fleet = %+v", st)
	}
	for _, path := range []string{"/fleet/register", "/fleet/deregister", "/fleet/unit"} {
		resp, _ := postJSON(t, ts, path, map[string]string{})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("single POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// oneVariantUnit shards a single-variant sweep into its one unit.
func oneVariantUnit(t *testing.T) fleet.Unit {
	t.Helper()
	opts := dse.Options{Jobs: 1, Scale: 0.05, Kernels: []string{"fir"}}
	variants, _, err := dse.EnumerateAll(context.Background(), []*dse.Sweep{{
		Base: "scalar", Widths: []int{1}, Complex: []bool{false},
	}})
	if err != nil {
		t.Fatal(err)
	}
	units, err := fleet.ShardDSE(variants, opts, 1)
	if err != nil || len(units) != 1 {
		t.Fatalf("sharded %d units, err %v", len(units), err)
	}
	return units[0]
}
