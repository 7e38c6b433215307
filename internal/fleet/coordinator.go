// The coordinator: a worker registry plus a dispatching engine that
// drives a set of work units to completion across the fleet.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"mat2c/internal/clock"
	"mat2c/internal/dse"
	"mat2c/internal/isx"
	"mat2c/internal/pdesc"
)

// Dispatch timing. These are fixed; only tests move the clock they are
// measured on.
const (
	// Window bounds in-flight units per worker: a slow worker holds up
	// at most Window units while the rest of the fleet drains the queue.
	Window = 2
	// MaxAttempts bounds failed dispatch attempts per unit before the
	// whole run fails. Backpressure sheds (503) do not count: a busy
	// fleet is not a broken one.
	MaxAttempts = 8
	// RetryBase and RetryMax shape the backoff between a unit's attempts
	// (clock.Backoff).
	RetryBase = 100 * time.Millisecond
	RetryMax  = 5 * time.Second
	// HeartbeatInterval is how often an Agent re-registers, and
	// HeartbeatTimeout how long after its last registration a worker is
	// still dispatched to.
	HeartbeatInterval = 3 * time.Second
	HeartbeatTimeout  = 15 * time.Second
	// NoWorkerTimeout fails a run whose units have waited this long with
	// no live worker (a busy one counts as live): workers may still be
	// registering, but a fleet without any must not hang jobs forever.
	NoWorkerTimeout = 60 * time.Second
	// UnitTimeout bounds one unit, on the coordinator's dispatch RPC and
	// in the worker's execution alike.
	UnitTimeout = 5 * time.Minute
)

// Config configures the coordinator. Zero values select defaults.
type Config struct {
	// UnitSize bounds variants per DSE unit (default 4).
	UnitSize int
	// Client issues the dispatch RPCs (default: a fresh client; every
	// call is bounded by UnitTimeout and the run's context).
	Client *http.Client
	// Logf, when set, receives dispatch diagnostics (worker loss,
	// retries).
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.UnitSize <= 0 {
		c.UnitSize = 4
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// worker is one registered fleet member.
type worker struct {
	id        string
	url       string
	slots     int
	lastSeen  time.Time
	gone      bool // deregistered, or lost to a transport error
	inflight  int
	completed uint64
	failed    uint64
}

// Coordinator owns the worker registry and dispatches work units. All
// methods are safe for concurrent use.
type Coordinator struct {
	cfg Config
	// clock decides liveness, retry delays and the no-worker timeout.
	// UnitTimeout stays on the wall clock: it limits one call and decides
	// no outcome.
	clock clock.Clock

	mu      sync.Mutex
	seq     int
	workers map[string]*worker // by id
	byURL   map[string]*worker
	// changed is closed and replaced (wake) when a worker registers, an
	// RPC settles or a run's timer fires; waiting runs and Quiesce wake.
	changed chan struct{}

	dispatched uint64
	completed  uint64
	retried    uint64
	shed       uint64
	abandoned  uint64
	inflight   int // dispatched-but-unacked unit RPCs
}

// NewCoordinator builds a coordinator with the given configuration.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		clock:   clock.Real,
		workers: map[string]*worker{},
		byURL:   map[string]*worker{},
		changed: make(chan struct{}),
	}
}

// wake wakes everything waiting on c.changed.
func (c *Coordinator) wake() {
	c.mu.Lock()
	defer c.mu.Unlock()
	close(c.changed)
	c.changed = make(chan struct{})
}

// Register adds (or refreshes — registration doubles as the heartbeat)
// a worker by its advertised URL and returns its id. Re-registering a
// URL that was lost revives it.
func (c *Coordinator) Register(url string, slots int) string {
	defer c.wake()
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.byURL[url]; w != nil {
		w.lastSeen = c.clock.Now()
		w.gone = false
		if slots > 0 {
			w.slots = slots
		}
		return w.id
	}
	c.seq++
	w := &worker{
		id:       fmt.Sprintf("w%d", c.seq),
		url:      url,
		slots:    slots,
		lastSeen: c.clock.Now(),
	}
	c.workers[w.id] = w
	c.byURL[url] = w
	c.cfg.Logf("fleet: worker %s registered at %s", w.id, url)
	return w.id
}

// Deregister removes a worker (by URL) from dispatch; a drain-aware
// worker calls this on shutdown so no further units land on it.
func (c *Coordinator) Deregister(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.byURL[url]
	if w == nil {
		return false
	}
	w.gone = true
	c.cfg.Logf("fleet: worker %s at %s deregistered", w.id, url)
	return true
}

// Status snapshots worker health and dispatch counters for GET /fleet
// and /metrics.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		UnitsDispatched: c.dispatched,
		UnitsCompleted:  c.completed,
		UnitsRetried:    c.retried,
		UnitsShed:       c.shed,
		UnitsAbandoned:  c.abandoned,
		InflightRPCs:    c.inflight,
	}
	now := c.clock.Now()
	for _, w := range c.workers {
		alive := !w.gone && now.Sub(w.lastSeen) < HeartbeatTimeout
		if alive {
			st.Alive++
		}
		st.Workers = append(st.Workers, WorkerInfo{
			ID:        w.id,
			URL:       w.url,
			Alive:     alive,
			LastSeenS: now.Sub(w.lastSeen).Seconds(),
			Inflight:  w.inflight,
			Slots:     w.slots,
			Completed: w.completed,
			Failed:    w.failed,
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	return st
}

// UnitSize exposes the configured DSE shard size.
func (c *Coordinator) UnitSize() int { return c.cfg.UnitSize }

// pickWorker chooses the least-loaded live worker with window room, or
// nil when none is eligible. expires is the earliest instant a live
// worker, busy or not, stops being live unless it heartbeats again; it
// is zero when no worker is live. The chosen worker's inflight is
// already incremented on return.
func (c *Coordinator) pickWorker() (best *worker, expires time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	for _, w := range c.workers {
		if w.gone || now.Sub(w.lastSeen) >= HeartbeatTimeout {
			continue
		}
		if at := w.lastSeen.Add(HeartbeatTimeout); expires.IsZero() || at.Before(expires) {
			expires = at
		}
		if w.inflight >= Window {
			continue
		}
		if best == nil || w.inflight < best.inflight ||
			(w.inflight == best.inflight && w.id < best.id) {
			best = w
		}
	}
	if best != nil {
		best.inflight++
		c.dispatched++
		c.inflight++
	}
	return best, expires
}

// release undoes pickWorker's accounting once the RPC settles. A worker
// lost to a transport error (lost != nil) is dropped from dispatch
// first, so no run that wakes on the freed slot picks it again; a later
// heartbeat revives it.
func (c *Coordinator) release(w *worker, ok bool, lost error) {
	defer c.wake()
	c.mu.Lock()
	defer c.mu.Unlock()
	if lost != nil && !w.gone {
		w.gone = true
		c.cfg.Logf("fleet: worker %s at %s lost: %v", w.id, w.url, lost)
	}
	w.inflight--
	c.inflight--
	if ok {
		w.completed++
		c.completed++
	} else {
		w.failed++
	}
}

// Quiesce blocks until every dispatched-but-unacked unit RPC has
// settled, or ctx expires — in which case the stragglers are recorded
// as abandoned and their count returned. Shutdown paths call this
// after cancelling the runs' contexts, so cancelled RPCs return
// promptly and an abandoned unit means a worker that would not let go
// within the grace period.
func (c *Coordinator) Quiesce(ctx context.Context) int {
	for {
		c.mu.Lock()
		n, changed := c.inflight, c.changed
		if n > 0 && ctx.Err() != nil {
			c.abandoned += uint64(n)
		}
		c.mu.Unlock()
		switch {
		case n == 0:
			return 0
		case ctx.Err() != nil:
			c.cfg.Logf("fleet: shutdown abandoned %d dispatched unit(s)", n)
			return n
		}
		select {
		case <-changed:
		case <-ctx.Done():
		}
	}
}

// sendOutcome classifies one dispatch attempt.
type sendOutcome struct {
	res        *UnitResult
	err        error
	permanent  bool          // 4xx other than 503/429: the unit itself is bad
	shed       bool          // 503/429 backpressure: retry without penalty
	retryAfter time.Duration // server-suggested delay on shed
}

// send dispatches one unit to one worker and classifies the reply.
func (c *Coordinator) send(ctx context.Context, w *worker, u *Unit) sendOutcome {
	cctx, cancel := context.WithTimeout(ctx, UnitTimeout)
	defer cancel()
	body, err := json.Marshal(u)
	if err != nil {
		return sendOutcome{err: err, permanent: true}
	}
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, w.url+"/fleet/unit", bytes.NewReader(body))
	if err != nil {
		return sendOutcome{err: err, permanent: true}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return sendOutcome{err: err}
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		// A reply cut short or failing its trailer counts an attempt and
		// is retried, like a lost one.
		res, err := ReadResult(resp.Body)
		if err != nil {
			return sendOutcome{err: err}
		}
		if res.ID != u.ID {
			return sendOutcome{err: fmt.Errorf("unit reply id %q does not match %q", res.ID, u.ID)}
		}
		return sendOutcome{res: res}
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		delay := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
				delay = time.Duration(secs) * time.Second
			}
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return sendOutcome{shed: true, retryAfter: delay,
			err: fmt.Errorf("worker %s shed unit (status %d)", w.id, resp.StatusCode)}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		err := fmt.Errorf("worker %s: status %d: %s", w.id, resp.StatusCode, bytes.TrimSpace(msg))
		return sendOutcome{err: err, permanent: resp.StatusCode >= 400 && resp.StatusCode < 500}
	}
}

// RunUnits drives units to completion across the registered workers:
// bounded per-worker in-flight windows, at-least-once dispatch with
// exponential backoff + jitter, re-dispatch on worker loss, and
// backpressure-aware retries on 503 sheds. onResult, when set, is
// called once per completed unit as results arrive (from dispatch
// goroutines; must be safe for concurrent use). Cancelling ctx stops
// dispatching and cancels in-flight RPCs; workers observe the
// cancellation through their request contexts.
//
// Between dispatches the run waits for something that can change what
// it may dispatch: a registration, a settled RPC freeing a window slot,
// a retry delay running out, or the heartbeat of a busy worker running
// out (a worker silent with its window full is gone, not busy). It
// fails when its units have waited NoWorkerTimeout with no live worker.
func (c *Coordinator) RunUnits(ctx context.Context, units []Unit, onResult func(*UnitResult)) ([]*UnitResult, error) {
	if len(units) == 0 {
		return nil, nil
	}
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()

	type attempt struct {
		idx   int
		tries int // failed attempts so far (sheds excluded)
	}
	var (
		mu        sync.Mutex
		ready     = make([]attempt, len(units)) // attempts due for dispatch
		results   = make([]*UnitResult, len(units))
		remaining = len(units)
		runErr    error
	)
	for i := range ready {
		ready[i].idx = i
	}
	finishErr := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
		rcancel()
	}
	// retry counts a retry in count and makes at ready again once delay
	// has passed, waking the loop. The end of the run stops the delay,
	// so a pending one holds nothing of the run.
	retry := func(at attempt, delay time.Duration, count *uint64) {
		c.mu.Lock()
		*count++
		c.mu.Unlock()
		t := c.clock.AfterFunc(delay, func() {
			if rctx.Err() != nil {
				return
			}
			mu.Lock()
			ready = append(ready, at)
			mu.Unlock()
			c.wake()
		})
		context.AfterFunc(rctx, func() { t.Stop() })
	}
	dispatch := func(at attempt, w *worker) {
		out := c.send(rctx, w, &units[at.idx])
		var lost error
		if out.err != nil && !out.shed && !out.permanent && rctx.Err() == nil {
			lost = out.err
		}
		c.release(w, out.err == nil, lost)
		switch {
		case out.err == nil:
			// A unit has one live attempt, so this is its only result.
			// It counts as done once onResult returns: the run never
			// returns while an onResult call is still running.
			mu.Lock()
			results[at.idx] = out.res
			mu.Unlock()
			if onResult != nil {
				onResult(out.res)
			}
			mu.Lock()
			remaining--
			rem := remaining
			mu.Unlock()
			if rem == 0 {
				rcancel()
			}
		case rctx.Err() != nil:
			// The run is over (cancelled or already failed); the
			// aborted RPC needs no retry bookkeeping.
		case out.shed:
			retry(at, out.retryAfter, &c.shed)
		case out.permanent:
			finishErr(fmt.Errorf("fleet: unit %s rejected: %w", units[at.idx].ID, out.err))
		default:
			at.tries++
			if at.tries >= MaxAttempts {
				finishErr(fmt.Errorf("fleet: unit %s failed after %d attempts: %w",
					units[at.idx].ID, at.tries, out.err))
				return
			}
			c.cfg.Logf("fleet: retrying unit %s (attempt %d): %v", units[at.idx].ID, at.tries+1, out.err)
			retry(at, clock.Backoff(RetryBase, RetryMax, at.tries-1), &c.retried)
		}
	}

	var (
		timer    clock.Timer // wakes the loop at timerAt
		timerAt  time.Time
		orphaned time.Time // since when attempts have waited with no live worker
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		c.mu.Lock()
		changed := c.changed
		c.mu.Unlock()
		mu.Lock()
		live, next := true, time.Time{} // next: when the clock alone changes what the run may do
		for len(ready) > 0 && rctx.Err() == nil {
			w, expires := c.pickWorker()
			if w == nil {
				live, next = !expires.IsZero(), expires
				break
			}
			go dispatch(ready[0], w)
			ready = ready[1:]
		}
		now := c.clock.Now()
		switch {
		case live:
			orphaned = time.Time{}
		case orphaned.IsZero():
			orphaned = now
		}
		if !live {
			if next = orphaned.Add(NoWorkerTimeout); !now.Before(next) && runErr == nil {
				runErr = fmt.Errorf("fleet: no live worker for %s (%d of %d units outstanding)",
					NoWorkerTimeout, remaining, len(units))
				rcancel()
			}
		}
		mu.Unlock()
		if !next.Equal(timerAt) {
			if timer != nil {
				timer.Stop()
			}
			timer, timerAt = nil, next
			if !next.IsZero() {
				timer = c.clock.AfterFunc(next.Sub(now), c.wake)
			}
		}
		select {
		case <-rctx.Done():
			mu.Lock()
			defer mu.Unlock()
			if runErr == nil && remaining > 0 {
				runErr = fmt.Errorf("fleet: run cancelled with %d of %d units outstanding: %w",
					remaining, len(units), ctx.Err())
			}
			return results, runErr
		case <-changed:
		}
	}
}

// ExploreDSE runs a sharded design-space exploration: enumerate on the
// coordinator, shard into content-keyed units, dispatch across the
// fleet, and merge — producing a report byte-identical to
// dse.ExploreContext on the same specification (ElapsedUS excepted;
// it is wall time). opts.OnVariant fires per evaluated variant as unit
// results arrive.
func (c *Coordinator) ExploreDSE(ctx context.Context, sweeps []*dse.Sweep, opts dse.Options) (*dse.Report, error) {
	begin := time.Now()
	variants, bases, err := dse.EnumerateAll(ctx, sweeps)
	if err != nil {
		return nil, err
	}
	units, err := ShardDSE(variants, opts, c.cfg.UnitSize)
	if err != nil {
		return nil, err
	}
	var onResult func(*UnitResult)
	if opts.OnVariant != nil {
		onResult = func(ur *UnitResult) {
			for _, vr := range ur.DSE {
				opts.OnVariant(vr.Result)
			}
		}
	}
	results, err := c.RunUnits(ctx, units, onResult)
	if err != nil {
		return nil, err
	}
	rep, err := MergeDSE(bases, opts, len(variants), results)
	if err != nil {
		return nil, err
	}
	rep.ElapsedUS = time.Since(begin).Microseconds()
	return rep, nil
}

// MineISX runs a sharded instruction-set-extension mine: plan
// (profile + enumerate + rank) on the coordinator, then dispatch one
// verification unit per candidate and merge the measured deltas —
// byte-identical to isx.MineContext on the same options.
func (c *Coordinator) MineISX(ctx context.Context, proc *pdesc.Processor, opts isx.Options) (*isx.Report, error) {
	plan, err := isx.PlanContext(ctx, proc, opts)
	if err != nil {
		return nil, err
	}
	if opts.NoVerify || len(plan.Candidates) == 0 {
		return plan.Report(), nil
	}
	units, err := ShardISX(plan)
	if err != nil {
		return nil, err
	}
	results, err := c.RunUnits(ctx, units, nil)
	if err != nil {
		return nil, err
	}
	return MergeISX(plan, results)
}
