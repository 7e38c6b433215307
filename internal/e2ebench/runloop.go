package e2ebench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/service"
)

// openRate is the open loop's offered load in requests per second.
// mat2cd serves about 700 a second on two cores, so this keeps it under
// a third busy: latency then tracks service time rather than queueing,
// which swings with whatever else shares the machine.
const openRate = 200

// connections bounds the load generator's concurrent HTTP connections,
// matching mat2cd's -workers 2.
const connections = 2

// closedDraw is how many requests per second of window the closed loop
// draws.
const closedDraw = 4000

// loopWindows splits the measured phase into one-second windows. Many
// short windows let the per-window medians ride out a burst of load
// from elsewhere on the machine.
func loopWindows(total time.Duration) (win time.Duration, n int) {
	win = time.Second
	if total < 2*win {
		win = total / 2
	}
	if win < 500*time.Millisecond {
		win = 500 * time.Millisecond
	}
	n = int(total / win)
	if n < 2 {
		n = 2
	}
	return win, n
}

// closedWindow reports whether window w runs the closed loop: two of
// every five windows measure capacity, the other three latency at the
// open loop's fixed rate. Interleaving the two spreads each metric's
// windows over the whole run.
func closedWindow(w int) bool { return w%5 == 1 || w%5 == 3 }

// seqHeader carries a request's sequence number so a traced server can
// match its handler timing to the client's sample.
const seqHeader = "E2ebench-Seq"

// sample is one /run request as the load generator saw it.
type sample struct {
	req    *request
	seq    int64
	due    time.Time // when the schedule said to send it
	sent   time.Time
	done   time.Time // when the response body was fully read
	status int
	body   []byte
	err    error
}

// latency is the time from when the request was due to its completion,
// so a stall also charges the requests queued behind it.
func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

type client struct {
	http *http.Client
	url  string
	seq  int64
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: time.Minute}, url: base + "/run"}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(s *sample) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(s.req.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.FormatInt(s.seq, 10))
	s.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		s.done, s.err = time.Now(), err
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done, s.status = time.Now(), resp.StatusCode
}

func (c *client) samples(reqs []request) []sample {
	out := make([]sample, len(reqs))
	for i := range reqs {
		c.seq++
		out[i] = sample{req: &reqs[i], seq: c.seq}
	}
	return out
}

// openLoop sends reqs on a fixed schedule at rate per second, whether
// or not earlier requests have finished, over at most two connections.
func (c *client) openLoop(reqs []request, rate float64) []sample {
	out := c.samples(reqs)
	ready := make(chan int, len(out)) // one slot per send: the scheduler never blocks
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				c.do(&out[i])
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i := range out {
		out[i].due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(out[i].due))
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out
}

// closedLoop runs two clients that each send their next request as soon
// as the previous one completes, for dur. It returns the samples sent
// and how many completed within the window, or an error if the clients
// used up reqs before the window ended.
func (c *client) closedLoop(reqs []request, dur time.Duration) ([]sample, int, error) {
	out := c.samples(reqs)
	deadline := time.Now().Add(dur)
	var next atomic.Int64 // index of the next unsent request
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(out) {
					return
				}
				out[i].due = time.Now()
				c.do(&out[i])
			}
		}()
	}
	wg.Wait()
	sent := int(next.Load())
	if sent > len(out) {
		return out, 0, fmt.Errorf("closed loop sent all %d drawn requests before its window ended", len(out))
	}
	out = out[:sent]
	n := 0
	for i := range out {
		if !out[i].done.After(deadline) {
			n++
		}
	}
	return out, n, nil
}

// runReply is the part of a /run response the benchmark checks.
type runReply struct {
	Results   []json.RawMessage `json:"results"`
	Cycles    int64             `json:"cycles"`
	CodeSize  int               `json:"code_size"`
	ElapsedUS int64             `json:"elapsed_us"`
	StagesUS  map[string]int64  `json:"stages_us"`
}

// check decodes one response and verifies it: a 200, results equal to
// the kernel's Go reference, and the cycle count and code size the
// warm-up established for the entry.
func (s *sample) check() (runReply, error) {
	var r runReply
	if s.err != nil {
		return r, s.err
	}
	if s.status != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	if err := json.Unmarshal(s.body, &r); err != nil {
		return r, fmt.Errorf("decoding response: %w", err)
	}
	e := s.req.entry
	if len(r.Results) != len(e.want) {
		return r, fmt.Errorf("%s: %d results, want %d", e.name(), len(r.Results), len(e.want))
	}
	got := make([]interface{}, len(r.Results))
	for i, raw := range r.Results {
		v, err := service.DecodeArg(raw, typeOfValue(e.want[i]))
		if err != nil {
			return r, fmt.Errorf("%s: result %d: %w", e.name(), i+1, err)
		}
		got[i] = v
	}
	if err := bench.Verify(got, e.want); err != nil {
		return r, fmt.Errorf("%s: %w", e.name(), err)
	}
	if e.cycles != 0 && (r.Cycles != e.cycles || r.CodeSize != e.codeSize) {
		return r, fmt.Errorf("%s: %d cycles and %d instructions, warm-up had %d and %d",
			e.name(), r.Cycles, r.CodeSize, e.cycles, e.codeSize)
	}
	return r, nil
}

// typeOfValue is the declared type DecodeArg needs to decode a result
// shaped like the reference value v.
func typeOfValue(v interface{}) mat2c.Type {
	switch v := v.(type) {
	case int64:
		return mat2c.Scalar(mat2c.Int)
	case complex128:
		return mat2c.Scalar(mat2c.Complex)
	case *mat2c.Array:
		if v.C != nil {
			return mat2c.Vector(mat2c.Complex)
		}
		return mat2c.Matrix(mat2c.Real)
	default:
		return mat2c.Scalar(mat2c.Real)
	}
}

// warm sends every catalog entry once, in order, so the measured phase
// finds all of them in the daemon's cache.
func (c *client) warm(cat []*entry) []sample {
	reqs := make([]request, len(cat))
	for i, e := range cat {
		reqs[i] = request{entry: e, source: e.source, body: e.body}
	}
	out := c.samples(reqs)
	for i := range out {
		c.do(&out[i])
	}
	return out
}

// checkWarm verifies the warm-up replies; the first warm-up fixes each
// entry's expected cycle count and code size, and later ones must agree.
func checkWarm(samples []sample) error {
	for i := range samples {
		r, err := samples[i].check()
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		e := samples[i].req.entry
		e.cycles, e.codeSize = r.Cycles, r.CodeSize
	}
	return nil
}

// loopStats accumulates the measured phase's outcomes.
type loopStats struct {
	rec      *Record
	sent     int
	errors   int
	wrong    int
	p50, p90 []float64 // per open-loop window, ms
	all      []float64 // every open-loop latency, ms
	late     []float64 // send time minus due time, ms
}

// tally checks a window's samples and counts its failures.
func (st *loopStats) tally(window string, samples []sample) []runReply {
	replies := make([]runReply, len(samples))
	for i := range samples {
		st.sent++
		r, err := samples[i].check()
		if err != nil {
			if samples[i].err != nil || samples[i].status != http.StatusOK {
				st.errors++
			} else {
				st.wrong++
			}
			if len(st.rec.Problems) < 10 {
				st.rec.Problems = append(st.rec.Problems, fmt.Sprintf("%s request %d: %v", window, i, err))
			}
			continue
		}
		replies[i] = r
	}
	return replies
}

// openWindow records one open-loop window's latency distribution.
func (st *loopStats) openWindow(samples []sample) {
	var lat []float64
	for i := range samples {
		s := &samples[i]
		if s.err == nil && s.status == http.StatusOK {
			lat = append(lat, ms(s.latency()))
		}
		st.late = append(st.late, ms(s.sent.Sub(s.due)))
	}
	st.all = append(st.all, lat...)
	st.p50 = append(st.p50, Percentile(lat, 0.50))
	st.p90 = append(st.p90, Percentile(lat, 0.90))
}

// runLoop runs the run-loop workload: a long-lived mat2cd, warmed with
// the whole catalog, under an open loop and then a closed loop.
func runLoop(ctx context.Context, cfg Config, bin Binaries, dir string, rec *Record) error {
	cat, err := catalog(cfg.Quick)
	if err != nil {
		return err
	}
	for _, e := range cat {
		e.want = e.kernel.Reference(e.kernel.Inputs(e.n))
	}
	logPath := filepath.Join(cfg.WorkDir, cfg.Workload+"-mat2cd.log")

	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups []float64
	for i := 0; i < setupReps(cfg); i++ {
		store := filepath.Join(dir, fmt.Sprintf("store-%d", i))
		begin := time.Now()
		d, err = startDaemon(bin.Mat2cd, logPath, "-workers", "2", "-cachedir", store)
		if err != nil {
			return err
		}
		c := newClient(d.url)
		warm := c.warm(cat)
		setups = append(setups, time.Since(begin).Seconds())
		c.close()
		if err := checkWarm(warm); err != nil {
			return err
		}
		if i < setupReps(cfg)-1 {
			if _, err := d.stop(); err != nil {
				return fmt.Errorf("stopping set-up daemon: %w", err)
			}
			d = nil
			os.RemoveAll(store)
		}
	}

	st := &loopStats{rec: rec}
	c := newClient(d.url)
	defer c.close()
	win, n := loopWindows(cfg.Seconds)
	var cpuSum time.Duration
	var openSent int
	var capacity []float64
	for w := 0; w < n; w++ {
		if closedWindow(w) {
			// Drawn well above the capacity of a two-core machine; running
			// out is reported rather than wrapping around.
			reqs := drawRequests(cat, cfg.Seed, "closed", w, int(closedDraw*win.Seconds()))
			samples, done, err := c.closedLoop(reqs, win)
			if err != nil {
				return err
			}
			capacity = append(capacity, float64(done)/win.Seconds())
			st.tally(fmt.Sprintf("closed window %d", w), samples)
			continue
		}
		reqs := drawRequests(cat, cfg.Seed, "open", w, int(openRate*win.Seconds()))
		cpu0, err := d.cpuTime()
		if err != nil {
			return err
		}
		samples := c.openLoop(reqs, openRate)
		cpu1, err := d.cpuTime()
		if err != nil {
			return err
		}
		cpuSum += cpu1 - cpu0
		openSent += len(samples)
		st.openWindow(samples)
		st.tally(fmt.Sprintf("open window %d", w), samples)
	}
	ps, err := d.stop()
	d = nil
	if err != nil {
		rec.problem("mat2cd did not shut down cleanly: %v", err)
	}

	rec.Result.Attempted = st.sent
	rec.Result.Failed += st.errors + st.wrong
	rec.Samples["setup_s"] = setups
	rec.Samples["latency_ms"] = st.p50
	rec.Samples["throughput_per_s"] = capacity
	rec.set("setup_s", Median(setups))
	rec.set("latency_ms", Median(st.p50))
	rec.set("cpu_ms", ms(cpuSum)/float64(openSent))
	rec.set("peak_rss_mb", maxRSSMB(ps))
	rec.set("throughput_per_s", Median(capacity))
	var cycles []float64
	size := 0
	for _, e := range cat {
		cycles = append(cycles, float64(e.cycles))
		size += e.codeSize
	}
	rec.set("sim_cycles_geomean", Geomean(cycles))
	rec.set("code_size_total", float64(size))
	rec.Extra["run_p90_ms"] = Value{Median(st.p90), "ms"}
	rec.Extra["run_p99_ms"] = Value{Percentile(st.all, 0.99), "ms"}
	rec.Extra["late_p99_ms"] = Value{Percentile(st.late, 0.99), "ms"}
	rec.Extra["offered_rps"] = Value{openRate, "1/s"}
	rec.Extra["error_rate"] = Value{float64(st.errors) / float64(st.sent), "ratio"}
	rec.Extra["wrong_outputs"] = Value{float64(st.wrong), "count"}
	return nil
}
