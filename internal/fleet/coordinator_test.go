package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mat2c "mat2c"
	"mat2c/internal/clock"
	"mat2c/internal/dse"
	"mat2c/internal/faults"
	"mat2c/internal/fleet"
)

// The RunUnits tests are seeded property tests on a fake clock: each
// seed is a subtest, so a failure replays with -run 'TestName/seed=N$'.

// executor runs the units it is sent, as a worker's /fleet/unit does.
func executor(cache *mat2c.Cache) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var u fleet.Unit
		if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := fleet.Execute(r.Context(), &u, cache)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		fleet.WriteResult(rw, res)
	})
}

// stub answers each unit with an empty result under its ID, but the
// unit reject, which it refuses with 422. It counts the units it saw.
type stub struct {
	reject string
	mu     sync.Mutex
	seen   map[string]int
}

func (s *stub) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	var u fleet.Unit
	if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if s.seen == nil {
		s.seen = map[string]int{}
	}
	s.seen[u.ID]++
	s.mu.Unlock()
	if u.ID == s.reject {
		http.Error(rw, "bad unit", http.StatusUnprocessableEntity)
		return
	}
	fleet.WriteResult(rw, &fleet.UnitResult{ID: u.ID, Kind: u.Kind})
}

func (s *stub) count(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[id]
}

// rig is a coordinator on a fake clock and the workers it dispatches
// to, each behind one shared seeded fault injector.
type rig struct {
	t   *testing.T
	clk *clock.Fake
	c   *fleet.Coordinator
	inj *faults.Injector
	// beating are the workers the rig keeps registered, as their agents
	// would.
	beating []string
}

func newRig(t *testing.T, seed int64) *rig {
	clk := clock.NewFake()
	c := fleet.NewCoordinator(fleet.Config{UnitSize: 1})
	fleet.SetClock(c, clk)
	return &rig{t: t, clk: clk, c: c, inj: faults.New(seed, clk)}
}

// worker serves h behind the injector, registers it, and keeps it
// registered when beating is set.
func (r *rig) worker(h http.Handler, beating bool) string {
	ts := httptest.NewServer(r.inj.Wrap(h))
	r.t.Cleanup(ts.Close)
	r.c.Register(ts.URL, 1)
	if beating {
		r.beating = append(r.beating, ts.URL)
	}
	return ts.URL
}

func (r *rig) heartbeat() {
	for _, url := range r.beating {
		r.c.Register(url, 1)
	}
}

// maxStep bounds one move of the clock in run: longer than any retry
// delay or Retry-After, shorter than HeartbeatTimeout and
// NoWorkerTimeout.
const maxStep = fleet.RetryMax * 3 / 2

// run runs units to the end while driving the clock: whenever a timer
// due within maxStep is pending, the rig heartbeats its workers and
// moves the clock to that timer. It returns the run's results and
// error, and how many times onResult fired per unit.
func (r *rig) run(units []fleet.Unit) ([]*fleet.UnitResult, error, map[string]int) {
	var mu sync.Mutex
	delivered := map[string]int{}
	var results []*fleet.UnitResult
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		results, err = r.c.RunUnits(context.Background(), units, func(u *fleet.UnitResult) {
			mu.Lock()
			delivered[u.ID]++
			mu.Unlock()
		})
	}()
	for {
		r.heartbeat()
		d, ok, changed := r.clk.Next()
		if ok && d <= maxStep {
			r.clk.Advance(d)
			continue
		}
		select {
		case <-done:
			r.heartbeat()
			return results, err, delivered
		case <-changed:
		}
	}
}

// await waits until the clock's earliest pending call is due in exactly
// d or, for d == 0, until no call is pending.
func (r *rig) await(d time.Duration) {
	for {
		left, ok, changed := r.clk.Next()
		if ok && left == d || !ok && d == 0 {
			return
		}
		<-changed
	}
}

// checkDelivered: every unit has a result, and onResult fired once for
// it.
func checkDelivered(t *testing.T, units []fleet.Unit, results []*fleet.UnitResult, delivered map[string]int) {
	t.Helper()
	for i, u := range units {
		if results[i] == nil || results[i].ID != u.ID {
			t.Fatalf("unit %d has result %+v", i, results[i])
		}
		if delivered[u.ID] != 1 {
			t.Fatalf("onResult fired %d times for unit %s, want once", delivered[u.ID], u.ID)
		}
	}
}

func smokeUnits(t *testing.T) ([]fleet.Unit, []string, []*dse.Variant, dse.Options) {
	t.Helper()
	sweep := &dse.Sweep{Base: "scalar", Widths: []int{1, 2, 4}, Complex: []bool{true, false}}
	opts := dse.Options{Jobs: 2, Scale: 0.05, Kernels: []string{"fir"}}
	variants, bases, err := dse.EnumerateAll(context.Background(), []*dse.Sweep{sweep})
	if err != nil {
		t.Fatal(err)
	}
	units, err := fleet.ShardDSE(variants, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return units, bases, variants, opts
}

// identity returns rep's dse.Report.Identity.
func identity(t *testing.T, rep *dse.Report) []byte {
	t.Helper()
	id, err := rep.Identity()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestRunUnitsWorkerLossRedispatch kills one worker mid-sweep (it
// aborts every connection after its first k units) while the healthy
// workers meet seeded drops, delays, sheds, and truncated and corrupted
// replies: re-dispatch drives the run to completion, onResult fires
// once per unit, the merged report has the single-process run's
// identity, the dead worker is marked lost, and no RPC is left in
// flight.
func TestRunUnitsWorkerLossRedispatch(t *testing.T) {
	units, bases, variants, opts := smokeUnits(t)
	single, err := dse.ExploreContext(context.Background(), []*dse.Sweep{{
		Base: "scalar", Widths: []int{1, 2, 4}, Complex: []bool{true, false},
	}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := identity(t, single)

	// At this fault rate seeds 8 and 9 meet corrupted replies, which a
	// coordinator that skipped the trailer check would merge.
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, seed)
			var served atomic.Int32
			k := int32(seed % 2)
			exec := executor(mat2c.NewCache(64))
			dying := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
				if served.Add(1) > k {
					panic(http.ErrAbortHandler)
				}
				exec.ServeHTTP(rw, req)
			}))
			defer dying.Close()
			r.c.Register(dying.URL, 1)
			healthy := 1 + int(seed%3)/2
			for i := 0; i < healthy; i++ {
				r.worker(executor(mat2c.NewCache(64)), true)
			}
			r.inj.Set(0.3, faults.Drop, faults.Delay, faults.Shed, faults.Truncate, faults.Corrupt)

			results, err, delivered := r.run(units)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			checkDelivered(t, units, results, delivered)
			merged, err := fleet.MergeDSE(bases, opts, len(variants), results)
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			if got := identity(t, merged); !bytes.Equal(got, want) {
				t.Errorf("post-redispatch report differs (faults %v)\nfleet:  %s\nsingle: %s", r.inj.Events(), got, want)
			}
			st := r.c.Status()
			if st.UnitsRetried == 0 {
				t.Error("worker death produced no retries")
			}
			if st.Alive != healthy {
				t.Errorf("workers alive = %d, want %d (the dead one marked lost)", st.Alive, healthy)
			}
			if st.InflightRPCs != 0 || st.UnitsCompleted != uint64(len(units)) {
				t.Errorf("after the run: %d RPCs in flight, %d units completed; want 0 and %d",
					st.InflightRPCs, st.UnitsCompleted, len(units))
			}
		})
	}
}

// perUnit counts the requests a handler gets per unit ID.
func perUnit(h http.Handler, counts map[string]int, mu *sync.Mutex) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var u fleet.Unit
		json.Unmarshal(body, &u)
		mu.Lock()
		counts[u.ID]++
		mu.Unlock()
		r.Body = io.NopCloser(strings.NewReader(string(body)))
		h.ServeHTTP(rw, r)
	})
}

// TestRunUnitsBackpressureShed: a worker shedding with 503 +
// Retry-After is retried without burning failure attempts — a unit
// shed more than MaxAttempts times still completes — and every shed is
// counted, none as a retry.
func TestRunUnitsBackpressureShed(t *testing.T) {
	units, _, _, _ := smokeUnits(t)
	most := 0
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, seed)
			var mu sync.Mutex
			requests := map[string]int{}
			ts := httptest.NewServer(perUnit(r.inj.Wrap(&stub{}), requests, &mu))
			defer ts.Close()
			r.c.Register(ts.URL, 1)
			r.beating = []string{ts.URL}
			r.inj.Set(0.75, faults.Shed)

			results, err, delivered := r.run(units)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			checkDelivered(t, units, results, delivered)
			sheds := 0
			for _, k := range r.inj.Events() {
				if k == faults.Shed {
					sheds++
				}
			}
			if st := r.c.Status(); st.UnitsShed != uint64(sheds) || st.UnitsRetried != 0 {
				t.Errorf("units_shed = %d, units_retried = %d; want %d and 0", st.UnitsShed, st.UnitsRetried, sheds)
			}
			mu.Lock()
			for _, n := range requests {
				most = max(most, n-1)
			}
			mu.Unlock()
		})
	}
	if most <= fleet.MaxAttempts {
		t.Errorf("no seed shed a unit more than MaxAttempts (%d) times; the most was %d", fleet.MaxAttempts, most)
	}
}

// TestRunUnitsNoWorkerFailsTheRun: a run with no live worker — none
// registered, the only one deregistered, or its heartbeat expired —
// fails with a no-live-worker error once NoWorkerTimeout has passed on
// the clock, and not before. A worker registering during the wait
// stops the timeout: the run outlives it and finishes.
func TestRunUnitsNoWorkerFailsTheRun(t *testing.T) {
	units, _, _, _ := smokeUnits(t)
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, seed)
			switch seed % 4 {
			case 1:
				url := r.worker(&stub{}, false)
				r.c.Deregister(url)
			case 2:
				r.worker(&stub{}, false)
				r.clk.Advance(fleet.HeartbeatTimeout)
			}
			some := units[:1+int(seed)%len(units)]
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				_, err = r.c.RunUnits(context.Background(), some, nil)
			}()
			r.clk.BlockUntil(1)
			if d, _, _ := r.clk.Next(); d != fleet.NoWorkerTimeout {
				t.Fatalf("run waits %v for a worker, want %v", d, fleet.NoWorkerTimeout)
			}
			r.clk.Advance(fleet.NoWorkerTimeout - 1)
			select {
			case <-done:
				t.Fatalf("run ended before NoWorkerTimeout: %v", err)
			default:
			}
			if seed%4 == 3 {
				arrived, release := make(chan struct{}, len(some)), make(chan struct{})
				r.worker(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
					arrived <- struct{}{}
					<-release
					(&stub{}).ServeHTTP(rw, req)
				}), true)
				<-arrived
				// The run has stopped its no-worker timeout; units left
				// waiting on the busy worker wait until its heartbeat
				// runs out.
				if len(some) > fleet.Window {
					r.await(fleet.HeartbeatTimeout)
				} else {
					r.await(0)
				}
				r.heartbeat()
				r.clk.Advance(fleet.HeartbeatTimeout / 2)
				close(release)
				<-done
				if err != nil {
					t.Fatalf("a worker registered during the wait, but the run failed: %v", err)
				}
				return
			}
			r.clk.Advance(1)
			<-done
			if err == nil || !strings.Contains(err.Error(), "no live worker") {
				t.Fatalf("err = %v, want a no-live-worker failure", err)
			}
		})
	}
}

// TestRunUnitsBusyWorkerDoesNotFailTheRun: a live worker whose window
// is full is busy, not gone. With one such worker holding its slots
// past NoWorkerTimeout (its heartbeats keep arriving), the waiting unit
// is dispatched once a slot frees and the run completes.
func TestRunUnitsBusyWorkerDoesNotFailTheRun(t *testing.T) {
	units, _, _, _ := smokeUnits(t)
	r := newRig(t, 1)
	arrived, release := make(chan struct{}, len(units)), make(chan struct{})
	url := r.worker(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		arrived <- struct{}{}
		<-release
		(&stub{}).ServeHTTP(rw, req)
	}), false)

	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err = r.c.RunUnits(context.Background(), units[:fleet.Window+1], nil)
	}()
	for i := 0; i < fleet.Window; i++ {
		<-arrived
	}
	for elapsed := time.Duration(0); elapsed <= fleet.NoWorkerTimeout; elapsed += fleet.HeartbeatTimeout / 2 {
		r.c.Register(url, 1)
		r.clk.Advance(fleet.HeartbeatTimeout / 2)
	}
	select {
	case <-done:
		t.Fatalf("run ended while its worker was busy: %v", err)
	default:
	}
	close(release)
	<-done
	if err != nil {
		t.Fatalf("run with a busy worker failed: %v", err)
	}
}

// TestRunUnitsSilentBusyWorkerFailsTheRun: a worker that stops
// heartbeating while its window is full and its RPCs hang is gone, not
// busy. Nothing registers or settles, yet the run notices when the
// heartbeat runs out and fails with a no-live-worker error once
// NoWorkerTimeout has passed after that, and not before.
func TestRunUnitsSilentBusyWorkerFailsTheRun(t *testing.T) {
	units, _, _, _ := smokeUnits(t)
	r := newRig(t, 1)
	arrived := make(chan struct{}, len(units))
	r.worker(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		// Drain the body so the server watches the connection and
		// cancels req.Context when the run gives up.
		io.Copy(io.Discard, req.Body)
		arrived <- struct{}{}
		<-req.Context().Done()
	}), false)

	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err = r.c.RunUnits(context.Background(), units[:fleet.Window+1], nil)
	}()
	for i := 0; i < fleet.Window; i++ {
		<-arrived
	}
	r.await(fleet.HeartbeatTimeout)
	r.clk.Advance(fleet.HeartbeatTimeout)
	r.await(fleet.NoWorkerTimeout)
	r.clk.Advance(fleet.NoWorkerTimeout - 1)
	select {
	case <-done:
		t.Fatalf("run ended before NoWorkerTimeout had passed since the heartbeat ran out: %v", err)
	default:
	}
	r.clk.Advance(1)
	<-done
	if err == nil || !strings.Contains(err.Error(), "no live worker") {
		t.Fatalf("err = %v, want a no-live-worker failure", err)
	}
}

// TestRunUnitsGivesUpAfterMaxAttempts: a unit whose every dispatch
// fails in transport (the connection dropped, or the reply cut short)
// fails the run after exactly MaxAttempts tries, naming the unit.
func TestRunUnitsGivesUpAfterMaxAttempts(t *testing.T) {
	units, _, _, _ := smokeUnits(t)
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, seed)
			var mu sync.Mutex
			requests := map[string]int{}
			ts := httptest.NewServer(perUnit(r.inj.Wrap(&stub{}), requests, &mu))
			defer ts.Close()
			r.c.Register(ts.URL, 1)
			r.beating = []string{ts.URL}
			r.inj.Set(1, faults.Drop, faults.Truncate)
			unit := units[int(seed)%len(units)]

			_, err, _ := r.run([]fleet.Unit{unit})
			want := fmt.Sprintf("unit %s failed after %d attempts", unit.ID, fleet.MaxAttempts)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
			mu.Lock()
			n := requests[unit.ID]
			mu.Unlock()
			if n != fleet.MaxAttempts {
				t.Errorf("the unit was sent %d times, want %d", n, fleet.MaxAttempts)
			}
			if st := r.c.Status(); st.UnitsRetried != fleet.MaxAttempts-1 {
				t.Errorf("units_retried = %d, want %d", st.UnitsRetried, fleet.MaxAttempts-1)
			}
		})
	}
}

// TestRunUnitsPermanentRejectFailsFast: a 4xx from a worker marks the
// unit bad and fails the run naming it, without sending it again; sheds
// of the other units on the way count no retries.
func TestRunUnitsPermanentRejectFailsFast(t *testing.T) {
	units, _, _, _ := smokeUnits(t)
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newRig(t, seed)
			bad := units[int(seed)%len(units)].ID
			s := &stub{reject: bad}
			r.worker(s, true)
			r.inj.Set(0.3, faults.Shed, faults.Delay)

			_, err, _ := r.run(units)
			if err == nil || !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), bad) {
				t.Fatalf("err = %v, want a rejection of unit %s", err, bad)
			}
			if n := s.count(bad); n != 1 {
				t.Errorf("the rejected unit reached the worker %d times, want once", n)
			}
			if st := r.c.Status(); st.UnitsRetried != 0 {
				t.Errorf("permanent reject retried %d times, want 0", st.UnitsRetried)
			}
		})
	}
}

// TestRunUnitsEndStopsRetryDelays: a run that ends while a unit waits
// out a shed's Retry-After stops that delay, so nothing of the run stays
// pending on the clock.
func TestRunUnitsEndStopsRetryDelays(t *testing.T) {
	units, _, _, _ := smokeUnits(t)
	r := newRig(t, 1)
	release := make(chan struct{})
	r.worker(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		var u fleet.Unit
		json.NewDecoder(req.Body).Decode(&u)
		if u.ID == units[0].ID {
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, "busy", http.StatusServiceUnavailable)
			return
		}
		<-release
		http.Error(rw, "bad unit", http.StatusUnprocessableEntity)
	}), false)

	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err = r.c.RunUnits(context.Background(), units[:2], nil)
	}()
	r.await(time.Second) // the shed unit waits out its Retry-After
	close(release)
	<-done
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("err = %v, want a rejection", err)
	}
	r.await(0)
}

// TestRegisterHeartbeatDeregister covers the registry lifecycle:
// registration, heartbeat refresh (same id), deregistration, revival.
func TestRegisterHeartbeatDeregister(t *testing.T) {
	c := fleet.NewCoordinator(fleet.Config{})

	id1 := c.Register("http://w1", 2)
	id2 := c.Register("http://w2", 2)
	if id1 == id2 {
		t.Fatalf("two workers share id %s", id1)
	}
	if again := c.Register("http://w1", 2); again != id1 {
		t.Errorf("heartbeat re-register changed id: %s -> %s", id1, again)
	}
	if st := c.Status(); st.Alive != 2 {
		t.Fatalf("alive = %d, want 2", st.Alive)
	}

	if !c.Deregister("http://w1") {
		t.Fatal("deregister of a known worker reported unknown")
	}
	if c.Deregister("http://nosuch") {
		t.Error("deregister of an unknown worker reported known")
	}
	if st := c.Status(); st.Alive != 1 {
		t.Fatalf("alive = %d after deregister, want 1", st.Alive)
	}

	// Re-registration revives a drained worker under its old id.
	if revived := c.Register("http://w1", 2); revived != id1 {
		t.Errorf("revival changed id: %s -> %s", id1, revived)
	}
	if st := c.Status(); st.Alive != 2 {
		t.Fatalf("alive = %d after revival, want 2", st.Alive)
	}
}

// TestAgentRegistersAndDeregisters drives the worker-side agent
// against a live coordinator: it registers at once, re-registers every
// HeartbeatInterval, and deregisters on shutdown.
func TestAgentRegistersAndDeregisters(t *testing.T) {
	c := fleet.NewCoordinator(fleet.Config{})
	var registrations atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req fleet.RegisterRequest
		json.NewDecoder(r.Body).Decode(&req)
		registrations.Add(1)
		json.NewEncoder(w).Encode(fleet.RegisterReply{ID: c.Register(req.URL, req.Slots)})
	})
	mux.HandleFunc("POST /fleet/deregister", func(w http.ResponseWriter, r *http.Request) {
		var req fleet.RegisterRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(map[string]bool{"deregistered": c.Deregister(req.URL)})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	clk := clock.NewFake()
	a := &fleet.Agent{Coordinator: ts.URL, Self: "http://worker:1", Slots: 3}
	fleet.SetAgentClock(a, clk)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()

	clk.BlockUntil(1) // registered; waiting for the next beat
	if st := c.Status(); st.Alive != 1 || registrations.Load() != 1 {
		t.Fatalf("after the first registration: %d alive, %d registrations", st.Alive, registrations.Load())
	}
	clk.Advance(fleet.HeartbeatInterval)
	clk.BlockUntil(1)
	if n := registrations.Load(); n != 2 {
		t.Fatalf("%d registrations after one heartbeat interval, want 2", n)
	}
	cancel()
	<-done
	if st := c.Status(); st.Alive != 0 {
		t.Fatalf("alive = %d after agent shutdown, want 0 (deregistered)", st.Alive)
	}
}

// TestAgentDeregisterBoundedByShutdownBudget: an injected client with a
// huge timeout plus a coordinator that sits on the deregister call must
// not stall agent shutdown — the deregister attempt ends when its
// budget runs out on the agent's clock, and not before.
func TestAgentDeregisterBoundedByShutdownBudget(t *testing.T) {
	arrived := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/register", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(fleet.RegisterReply{ID: "w1"})
	})
	mux.HandleFunc("POST /fleet/deregister", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server watches the connection and
		// cancels r.Context when the agent gives up.
		io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		<-r.Context().Done()
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	clk := clock.NewFake()
	a := &fleet.Agent{
		Coordinator: ts.URL,
		Self:        "http://worker:1",
		Client:      &http.Client{Timeout: time.Hour},
	}
	fleet.SetAgentClock(a, clk)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	clk.BlockUntil(1) // registered
	cancel()
	<-arrived
	clk.BlockUntil(1)
	if d, _, _ := clk.Next(); d != fleet.DeregisterBudget {
		t.Fatalf("the deregister call is bounded by %v, want %v", d, fleet.DeregisterBudget)
	}
	clk.Advance(fleet.DeregisterBudget)
	<-done
}
