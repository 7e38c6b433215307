package remote

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mat2c/internal/artifact"
	"mat2c/internal/clock"
	"mat2c/internal/faults"
)

// The breaker tests are seeded property tests: each seed is a subtest,
// so a failure replays with -run 'TestName/seed=N$'.
const breakerSeeds = 25

// breakerModel is the reference the breaker tests hold the client to:
// the breaker's state machine, replayed over the faults the injector
// reports for each operation's requests.
type breakerModel struct {
	state                       int
	consecutive                 int
	openedAt                    time.Time
	trips, retries, unavailable uint64
}

// outcome classifies a fault as the client sees it: whether the attempt
// failed, and whether a failure is worth retrying. A batch reply with
// one corrupt frame is a healthy round trip with one corrupt answer.
func outcome(k faults.Kind, batch bool) (failed, retryable bool) {
	switch k {
	case faults.Drop, faults.Shed, faults.Truncate:
		return true, true
	case faults.Corrupt:
		return !batch, false
	case faults.Reorder:
		return true, false
	}
	return false, false
}

// op replays one operation that started at start and ended at end,
// whose requests met got. It returns how many requests the operation
// should have made and whether it should end in a healthy round trip.
func (m *breakerModel) op(start, end time.Time, got []faults.Kind, batch bool) (requests int, ok bool) {
	switch {
	case m.state == stOpen && start.Sub(m.openedAt) < BreakerCooldown:
		m.unavailable++
		return 0, false
	case m.state == stOpen:
		m.state = stHalfOpen
	}
	for i := 0; i < MaxAttempts; i++ {
		if i > 0 {
			m.retries++
		}
		if i >= len(got) {
			return i + 1, false
		}
		failed, retryable := outcome(got[i], batch)
		if !failed {
			m.state, m.consecutive = stClosed, 0
			return i + 1, true
		}
		m.consecutive++
		if m.state == stHalfOpen || m.consecutive >= BreakerThreshold {
			m.trips++
			m.state, m.openedAt, m.consecutive = stOpen, end, 0
			return i + 1, false
		}
		if !retryable {
			return i + 1, false
		}
	}
	return MaxAttempts, false
}

var stateNames = map[int]string{stClosed: "closed", stOpen: "open", stHalfOpen: "half-open"}

// breakerRig is one origin behind a seeded fault injector, a client on
// a fake clock, and the model the client is checked against after every
// operation.
type breakerRig struct {
	t      *testing.T
	rng    *rand.Rand
	inj    *faults.Injector
	clk    *clock.Fake
	c      *RemoteStore
	model  breakerModel
	stored map[string][]byte // what the origin holds
	keys   []string          // keys asked for: stored ones and absent ones
}

func newBreakerRig(t *testing.T, seed int64) *breakerRig {
	store, err := artifact.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &breakerRig{t: t, rng: rand.New(rand.NewSource(seed)), clk: clock.NewFake(), stored: map[string][]byte{}}
	r.inj = faults.New(seed, r.clk)
	r.inj.Mangle = mangleReply
	ts := httptest.NewServer(r.inj.Wrap(NewServer(store, 0).Handler()))
	t.Cleanup(ts.Close)
	r.c = newClient(ts.URL+"/artifact", r.clk)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%02d", i)
		r.keys = append(r.keys, key)
		if i%2 == 0 {
			r.stored[key] = []byte("payload of " + key)
			if err := store.Put(key, r.stored[key]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}

// mangleReply applies the injector's body faults to the artifact
// protocol's replies. Corrupt flips a byte of a GET reply, or of one
// present frame's payload or trailer in a batch reply, so that reply
// still parses; Reorder duplicates one frame of a batch reply and swaps
// it with its neighbour.
func mangleReply(kind faults.Kind, rng *rand.Rand, r *http.Request, req, reply []byte) []byte {
	if !strings.HasSuffix(r.URL.Path, "/batch") {
		if kind != faults.Corrupt {
			return nil
		}
		reply[rng.Intn(len(reply))] ^= 0x20
		return reply
	}
	keys := strings.Split(string(req), "\n")
	got, err := decodeBatch(bytes.NewReader(reply), keys, DefaultMaxEntryBytes)
	if err != nil {
		return nil
	}
	var frames [][]byte
	var present []int
	for i, f := range got {
		frames = append(frames, appendBatchFrame(nil, keys[i], f.Data, f.Err == nil))
		if f.Err == nil {
			present = append(present, i)
		}
	}
	switch {
	case kind == faults.Corrupt && len(present) > 0:
		i := present[rng.Intn(len(present))]
		n := int(framedLen(got[i].Data))
		frames[i][len(frames[i])-n+rng.Intn(n)] ^= 0x20
	case kind == faults.Reorder && len(frames) > 0:
		i := rng.Intn(len(frames))
		frames = append(frames[:i+1], frames[i:]...)
		if i+2 < len(frames) {
			frames[i+1], frames[i+2] = frames[i+2], frames[i+1]
		}
	default:
		return nil
	}
	return appendBatchEnd(bytes.Join(frames, nil))
}

// flaky faults a share of the requests with every fault there is;
// outage fails every request; healthy faults nothing.
func (r *breakerRig) flaky() {
	r.inj.Set(0.3, faults.Drop, faults.Delay, faults.Shed, faults.Truncate, faults.Corrupt, faults.Reorder)
}
func (r *breakerRig) outage()  { r.inj.Set(1, faults.Drop, faults.Shed) }
func (r *breakerRig) healthy() { r.inj.Set(0) }

// wander moves the clock a random amount: often not at all, sometimes
// past a whole cooldown.
func (r *breakerRig) wander() {
	switch r.rng.Intn(5) {
	case 0, 1:
	case 2, 3:
		r.clk.Advance(time.Duration(r.rng.Int63n(int64(2 * time.Second))))
	default:
		r.clk.Advance(BreakerCooldown + time.Duration(r.rng.Int63n(int64(time.Second))))
	}
}

// run performs one operation and checks its requests and the client's
// counters against the model; it returns whether the model expects a
// healthy round trip.
func (r *breakerRig) run(name string, batch bool, op func()) bool {
	r.t.Helper()
	start, before := r.clk.Now(), len(r.inj.Events())
	op()
	got := r.inj.Events()[before:]
	want, ok := r.model.op(start, r.clk.Now(), got, batch)
	if len(got) != want {
		r.t.Fatalf("%s made %d requests %v, want %d (model %+v)", name, len(got), got, want, r.model)
	}
	st := r.c.Stats()
	if st.BreakerTrips != r.model.trips || st.Retries != r.model.retries ||
		st.Unavailable != r.model.unavailable || st.BreakerState != stateNames[r.model.state] {
		r.t.Fatalf("%s: client trips=%d retries=%d unavailable=%d state=%s; model %+v",
			name, st.BreakerTrips, st.Retries, st.Unavailable, st.BreakerState, r.model)
	}
	return ok
}

// get reads one key: a healthy round trip returns exactly what the
// origin holds; anything else is a miss, never bytes.
func (r *breakerRig) get(key string) {
	r.t.Helper()
	var data []byte
	var err error
	ok := r.run("get "+key, false, func() { data, err = r.c.Get(key) })
	want, present := r.stored[key]
	switch {
	case ok && present && (err != nil || !bytes.Equal(data, want)):
		r.t.Fatalf("get %s: %q %v, want %q", key, data, err, want)
	case ok && !present && !errors.Is(err, artifact.ErrNotFound):
		r.t.Fatalf("get %s: %q %v, want ErrNotFound", key, data, err)
	case !ok && (data != nil || !(errors.Is(err, ErrUnavailable) || errors.Is(err, artifact.ErrCorrupt))):
		r.t.Fatalf("get %s after a failed round trip: %q %v, want ErrUnavailable or ErrCorrupt", key, data, err)
	}
}

func (r *breakerRig) has(key string) {
	r.t.Helper()
	var has bool
	var err error
	ok := r.run("has "+key, false, func() { has, err = r.c.Has(key) })
	_, present := r.stored[key]
	if ok && (err != nil || has != present) || !ok && err == nil {
		r.t.Fatalf("has %s: %v %v (healthy round trip %v, stored %v)", key, has, err, ok, present)
	}
}

func (r *breakerRig) put() {
	r.t.Helper()
	key := fmt.Sprintf("p%02d", len(r.keys))
	data := []byte("put " + key)
	var err error
	ok := r.run("put "+key, false, func() { err = r.c.Put(key, data) })
	if ok != (err == nil) {
		r.t.Fatalf("put %s: %v (healthy round trip %v)", key, err, ok)
	}
	if ok {
		r.stored[key] = data
	}
	r.keys = append(r.keys, key)
}

// batch reads every key: a healthy reply answers each like a Get, but
// for at most one frame the injector corrupted.
func (r *breakerRig) batch() {
	r.t.Helper()
	var got []artifact.Fetched
	var err error
	ok := r.run("batch", true, func() { got, err = r.c.GetBatch(r.keys) })
	if !ok {
		if got != nil || err == nil {
			r.t.Fatalf("batch after a failed round trip: %d answers, %v", len(got), err)
		}
		return
	}
	if err != nil || len(got) != len(r.keys) {
		r.t.Fatalf("batch: %d answers, %v", len(got), err)
	}
	corrupt := 0
	for i, f := range got {
		want, present := r.stored[r.keys[i]]
		switch {
		case errors.Is(f.Err, artifact.ErrCorrupt) && f.Data == nil && present:
			corrupt++
		case present && (f.Err != nil || !bytes.Equal(f.Data, want)),
			!present && !errors.Is(f.Err, artifact.ErrNotFound):
			r.t.Fatalf("batch answer for %s: %q %v", r.keys[i], f.Data, f.Err)
		}
	}
	if last := r.inj.Events(); corrupt > 1 || corrupt == 1 && last[len(last)-1] != faults.Corrupt {
		r.t.Fatalf("batch: %d corrupt answers without a corrupted frame", corrupt)
	}
}

// random runs one operation of any kind on a random key.
func (r *breakerRig) random() {
	r.t.Helper()
	key := r.keys[r.rng.Intn(len(r.keys))]
	switch r.rng.Intn(4) {
	case 0:
		r.get(key)
	case 1:
		r.has(key)
	case 2:
		r.put()
	default:
		r.batch()
	}
}

// prelude runs a few random operations on a flaky origin, and leaves
// the breaker closed.
func (r *breakerRig) prelude() {
	r.flaky()
	for i := r.rng.Intn(12); i > 0; i-- {
		r.wander()
		r.random()
	}
	r.healthy()
	r.clk.Advance(BreakerCooldown)
	r.get(r.keys[0])
}

// tripOnOutage fails every request until the breaker opens, and checks
// it opened once.
func (r *breakerRig) tripOnOutage() {
	r.t.Helper()
	r.outage()
	trips := r.model.trips
	for r.model.state != stOpen {
		r.random()
	}
	if r.model.trips != trips+1 {
		r.t.Fatalf("one outage tripped the breaker %d times", r.model.trips-trips)
	}
}

// TestBreakerTripsAndRecovers: consecutive failed attempts trip the
// breaker at the threshold; while it is open every operation fails fast
// with ErrUnavailable and without a request, and is counted as
// unavailable; once the origin is back and the cooldown has passed, the
// first operation is the probe, reads the right bytes and closes the
// breaker. Every operation on the way, on a flaky origin too, matches
// the model.
func TestBreakerTripsAndRecovers(t *testing.T) {
	met := map[faults.Kind]int{}
	for seed := int64(1); seed <= breakerSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newBreakerRig(t, seed)
			r.prelude()
			r.tripOnOutage()

			opened := r.clk.Now()
			for i := r.rng.Intn(4) + 1; i >= 0; i-- {
				if i == 0 {
					// The last instant of the cooldown.
					r.clk.Advance(BreakerCooldown - 1 - r.clk.Now().Sub(opened))
				} else {
					r.clk.Advance(time.Duration(r.rng.Int63n(int64(BreakerCooldown / 8))))
				}
				unavailable := r.model.unavailable
				r.random()
				if r.model.unavailable != unavailable+1 {
					t.Fatalf("an operation %v into the cooldown was not a fast fail", r.clk.Now().Sub(opened))
				}
			}

			r.healthy()
			r.clk.Advance(1)
			r.get(r.keys[0])
			if st := r.c.Stats(); st.BreakerState != "closed" || st.Hits == 0 {
				t.Fatalf("after recovery: %+v", st)
			}
			r.flaky()
			for i := 0; i < 10; i++ {
				r.wander()
				r.random()
			}
			for _, k := range r.inj.Events() {
				met[k]++
			}
		})
	}
	// The seeds exercise every fault.
	for k := faults.Drop; k <= faults.Reorder; k++ {
		if met[k] == 0 {
			t.Errorf("no seed met fault kind %d", k)
		}
	}
}

// TestBreakerHalfOpenReopensOnFailure: a probe that fails re-opens the
// breaker for a fresh cooldown and counts another trip; until that
// cooldown has passed every operation fails fast, and a healthy probe
// after it closes the breaker.
func TestBreakerHalfOpenReopensOnFailure(t *testing.T) {
	for seed := int64(1); seed <= breakerSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newBreakerRig(t, seed)
			r.prelude()
			r.tripOnOutage()

			r.clk.Advance(BreakerCooldown + time.Duration(r.rng.Int63n(int64(time.Second))))
			trips, requests := r.model.trips, len(r.inj.Events())
			r.random()
			if r.model.trips != trips+1 || len(r.inj.Events()) != requests+1 {
				t.Fatalf("failed probe: %d trips and %d requests, want 1 and 1",
					r.model.trips-trips, len(r.inj.Events())-requests)
			}

			r.clk.Advance(BreakerCooldown - 1)
			r.random()
			if st := r.c.Stats(); st.BreakerState != "open" || st.BreakerTrips != trips+1 {
				t.Fatalf("within the fresh cooldown: %+v", st)
			}

			r.healthy()
			r.clk.Advance(1)
			r.get(r.keys[0])
			if st := r.c.Stats(); st.BreakerState != "closed" {
				t.Fatalf("healthy probe after the fresh cooldown left the breaker %s", st.BreakerState)
			}
		})
	}
}

// TestServerRestartMidStream kills the origin between requests and
// brings a new one up on the same address over the same store: during
// the outage every operation degrades to a miss, at least one counted
// unavailable, and none succeeds; after the restart, an operation fails
// only while the breaker is open and cooling down, and the first one
// after the cooldown reads the right bytes and closes the breaker.
func TestServerRestartMidStream(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store, err := artifact.OpenDisk(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			hsrv := &http.Server{Handler: NewServer(store, 0).Handler()}
			go hsrv.Serve(ln)

			clk := clock.NewFake()
			c := newClient("http://"+addr+"/artifact", clk)
			payload := []byte("survives restarts")
			if err := c.Put(testKey, payload); err != nil {
				t.Fatal(err)
			}
			hsrv.Close()

			sawUnavailable := false
			var opened time.Time // when the outage tripped the breaker
			for i := rng.Intn(2*BreakerThreshold) + 1; i > 0; i-- {
				if _, err := c.Get(testKey); errors.Is(err, ErrUnavailable) {
					sawUnavailable = true
				} else if err == nil {
					t.Fatal("get succeeded against a dead origin")
				}
				if opened.IsZero() && c.Stats().BreakerState == "open" {
					opened = clk.Now()
				}
			}
			if !sawUnavailable {
				t.Fatal("outage never classified as unavailable")
			}

			ln2, err := net.Listen("tcp", addr)
			if err != nil {
				t.Skipf("could not rebind %s: %v", addr, err)
			}
			hsrv2 := &http.Server{Handler: NewServer(store, 0).Handler()}
			go hsrv2.Serve(ln2)
			defer hsrv2.Close()

			for {
				clk.Advance(time.Duration(rng.Int63n(int64(BreakerCooldown))))
				cooling := !opened.IsZero() && clk.Now().Sub(opened) < BreakerCooldown
				got, err := c.Get(testKey)
				if cooling {
					if !errors.Is(err, ErrUnavailable) {
						t.Fatalf("get while the breaker cools down: %q %v, want ErrUnavailable", got, err)
					}
					continue
				}
				if err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("restarted origin: %q %v, want %q", got, err, payload)
				}
				break
			}
			if st := c.Stats(); st.BreakerState != "closed" {
				t.Fatalf("breaker after recovery: %s", st.BreakerState)
			}
		})
	}
}
