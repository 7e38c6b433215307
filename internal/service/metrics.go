// Metrics for the compile-and-simulate service: request counters,
// latency histograms per compiler stage, and an in-flight gauge. The
// registry is expvar-style — plain counters snapshotted into one JSON
// document by the /metrics endpoint — and uses only the standard
// library.
package service

import (
	"slices"
	"sync"
	"time"

	mat2c "mat2c"
	"mat2c/internal/core"
	"mat2c/internal/isx"
	"mat2c/internal/vm"
)

// bucketBoundsUS are the histogram upper bounds in microseconds,
// roughly exponential from 50µs to 1s; observations above the last
// bound land in the overflow bucket.
var bucketBoundsUS = []int64{
	50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000,
}

// histogram is a fixed-bucket latency histogram. Guarded by the
// owning Metrics mutex.
type histogram struct {
	count   uint64
	sumUS   int64
	maxUS   int64
	buckets []uint64 // len(bucketBoundsUS)+1; last is overflow
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]uint64, len(bucketBoundsUS)+1)}
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	h.count++
	h.sumUS += us
	if us > h.maxUS {
		h.maxUS = us
	}
	for i, bound := range bucketBoundsUS {
		if us <= bound {
			h.buckets[i]++
			return
		}
	}
	h.buckets[len(h.buckets)-1]++
}

// HistogramSnapshot is the JSON form of one latency histogram. Buckets
// are cumulative-free: Buckets[i].Count observations fell in
// (previous bound, LeUS]; the entry with LeUS == 0 is the overflow
// bucket.
type HistogramSnapshot struct {
	Count   uint64           `json:"count"`
	TotalUS int64            `json:"total_us"`
	AvgUS   int64            `json:"avg_us"`
	MaxUS   int64            `json:"max_us"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one histogram bucket; LeUS 0 marks the overflow
// bucket (observations above every bound).
type BucketSnapshot struct {
	LeUS  int64  `json:"le_us"`
	Count uint64 `json:"count"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, TotalUS: h.sumUS, MaxUS: h.maxUS}
	if h.count > 0 {
		s.AvgUS = h.sumUS / int64(h.count)
	}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		var le int64
		if i < len(bucketBoundsUS) {
			le = bucketBoundsUS[i]
		}
		s.Buckets = append(s.Buckets, BucketSnapshot{LeUS: le, Count: n})
	}
	return s
}

// endpointStats counts requests for one endpoint.
type endpointStats struct {
	count     uint64
	errors    uint64 // responses with status >= 400
	timeouts  uint64
	cancelled uint64 // client went away (or server shutdown) before completion
	panics    uint64
	latency   *histogram
}

// EndpointSnapshot is the JSON form of one endpoint's counters.
type EndpointSnapshot struct {
	Count     uint64            `json:"count"`
	Errors    uint64            `json:"errors"`
	Timeouts  uint64            `json:"timeouts"`
	Cancelled uint64            `json:"cancelled"`
	Panics    uint64            `json:"panics"`
	Latency   HistogramSnapshot `json:"latency"`
}

// Metrics aggregates service observability state. All methods are safe
// for concurrent use.
type Metrics struct {
	mu        sync.Mutex
	start     time.Time
	inflight  int64
	requests  map[string]*endpointStats
	stages    map[string]*histogram
	compiles  uint64
	cacheHits uint64

	// vmFaults counts simulator faults not attributable to the request
	// (cycle-budget exhaustion, runtime faults); they map to 500.
	vmFaults uint64
	// targetLoadErrors counts processor descriptions the /targets
	// catalog failed to load (catalog corruption, never silent).
	targetLoadErrors uint64

	// queueShed counts requests shed with 503 + Retry-After because a
	// bounded queue was full, keyed by queue name ("compile"/"run" for
	// the interactive worker pool, "sweep" for a worker's fleet-unit
	// queue).
	queueShed map[string]uint64

	// jobs counts async jobs by kind ("dse", "isx").
	jobs map[string]*jobCounters

	// Design-space exploration variant counters.
	dseVariants     uint64
	dseCacheLookups uint64
	dseCacheHits    uint64
}

// jobCounters counts one kind of async job. last is the size of the
// most recent done job's report (a sweep's frontier, a mine's
// candidates).
type jobCounters struct {
	started, failures, cancelled uint64
	running                      int64
	last                         int
}

// NewMetrics returns a registry with every pipeline-stage series
// pre-registered so /metrics exposes a stable shape from the first
// scrape.
func NewMetrics() *Metrics {
	m := &Metrics{
		start:    time.Now(),
		requests: map[string]*endpointStats{},
		stages:   map[string]*histogram{},
		jobs:     map[string]*jobCounters{"dse": {}, "isx": {}},
	}
	for _, s := range mat2c.StageNames() {
		m.stages[s] = newHistogram()
	}
	return m
}

func (m *Metrics) endpoint(name string) *endpointStats {
	e, ok := m.requests[name]
	if !ok {
		e = &endpointStats{latency: newHistogram()}
		m.requests[name] = e
	}
	return e
}

// RequestStarted bumps the in-flight gauge for one endpoint request;
// call the returned function exactly once when the request finishes,
// with the response status and whether the request timed out, was
// cancelled (client disconnect / server shutdown), or recovered from a
// handler panic.
func (m *Metrics) RequestStarted(name string) func(status int, timedOut, cancelled, panicked bool) {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
	begin := time.Now()
	return func(status int, timedOut, cancelled, panicked bool) {
		d := time.Since(begin)
		m.mu.Lock()
		defer m.mu.Unlock()
		m.inflight--
		e := m.endpoint(name)
		e.count++
		e.latency.observe(d)
		if status >= 400 {
			e.errors++
		}
		if timedOut {
			e.timeouts++
		}
		if cancelled {
			e.cancelled++
		}
		if panicked {
			e.panics++
		}
	}
}

// VMFault counts one simulator fault classified as a server-side error
// (not caused by the request arguments).
func (m *Metrics) VMFault() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vmFaults++
}

// TargetLoadError counts one processor description that failed to load
// while building the /targets catalog.
func (m *Metrics) TargetLoadError() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.targetLoadErrors++
}

// QueueShed counts one request shed with 503 + Retry-After because the
// named bounded queue was full.
func (m *Metrics) QueueShed(queue string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.queueShed == nil {
		m.queueShed = map[string]uint64{}
	}
	m.queueShed[queue]++
}

// ObserveCompile records one compilation's outcome: the per-stage
// timings of a miss, or a cache hit (which has no stage work). A miss
// whose stages are all zero ran none (the compile driver's back-half
// memo served it) and records no stage sample.
func (m *Metrics) ObserveCompile(stages []mat2c.StageTime, cacheHit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compiles++
	if cacheHit {
		m.cacheHits++
		return
	}
	if !slices.ContainsFunc(stages, func(st mat2c.StageTime) bool { return st.Duration != 0 }) {
		return
	}
	for _, st := range stages {
		h, ok := m.stages[st.Stage]
		if !ok {
			h = newHistogram()
			m.stages[st.Stage] = h
		}
		h.observe(st.Duration)
	}
}

// JobStarted counts one launch of a kind of async job.
func (m *Metrics) JobStarted(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.jobs[kind]
	c.started++
	c.running++
}

// ObserveDSEVariant records one evaluated variant and its compile-cache
// traffic (called concurrently from sweep workers).
func (m *Metrics) ObserveDSEVariant(lookups, hits int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dseVariants++
	m.dseCacheLookups += uint64(lookups)
	m.dseCacheHits += uint64(hits)
}

// JobFinished records one async job ending; size measures its report
// and is kept only for a job that neither failed nor was cancelled.
func (m *Metrics) JobFinished(kind string, size int, failed, cancelled bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.jobs[kind]
	c.running--
	switch {
	case cancelled:
		c.cancelled++
	case failed:
		c.failures++
	default:
		c.last = size
	}
}

// InFlight returns the current in-flight request count.
func (m *Metrics) InFlight() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inflight
}

// Snapshot is the /metrics JSON document.
type Snapshot struct {
	UptimeSeconds    float64                      `json:"uptime_seconds"`
	InFlight         int64                        `json:"inflight"`
	Compiles         uint64                       `json:"compiles"`
	CompileHits      uint64                       `json:"compile_cache_hits"`
	VMFaults         uint64                       `json:"vm_faults"`
	TargetLoadErrors uint64                       `json:"target_load_errors"`
	QueueShed        map[string]uint64            `json:"queue_shed,omitempty"`
	Requests         map[string]EndpointSnapshot  `json:"requests"`
	Stages           map[string]HistogramSnapshot `json:"stages_us"`
	Cache            mat2c.CacheStats             `json:"cache"`
	CompileMemo      core.MemosInfo               `json:"compile_memo"`
	DSE              DSESnapshot                  `json:"dse"`
	ISX              ISXSnapshot                  `json:"isx"`
	VM               VMSnapshot                   `json:"vm"`
}

// VMSnapshot is the /metrics simulator section: the compiled engine's
// translation counters. (The run-events memo that lets DSE price
// variants instead of re-simulating them counts under cache.)
type VMSnapshot struct {
	Compiled vm.CompiledInfo `json:"compiled"`
}

// DSESnapshot is the /metrics design-space-exploration section.
type DSESnapshot struct {
	Sweeps            uint64  `json:"sweeps"`
	Running           int64   `json:"running"`
	Failures          uint64  `json:"failures"`
	Cancelled         uint64  `json:"cancelled"`
	VariantsEvaluated uint64  `json:"variants_evaluated"`
	CacheLookups      uint64  `json:"cache_lookups"`
	CacheHits         uint64  `json:"cache_hits"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	LastFrontierSize  int     `json:"last_frontier_size"`
}

// ISXSnapshot is the /metrics instruction-set-extension-mining section.
type ISXSnapshot struct {
	Mines          uint64          `json:"mines"`
	Running        int64           `json:"running"`
	Failures       uint64          `json:"failures"`
	Cancelled      uint64          `json:"cancelled"`
	LastCandidates int             `json:"last_candidates"`
	Runs           ISXRunsSnapshot `json:"runs"`
}

// ISXRunsSnapshot counts the runs that verify mined candidates, in this
// process's /isx mines and fleet isx units alike (isx.RunStats):
// simulated and verified against the kernel's reference, or priced
// from the events of such a run of the same program.
type ISXRunsSnapshot struct {
	Simulated uint64 `json:"simulated"`
	Priced    uint64 `json:"priced"`
}

// SnapshotWith captures all counters plus the supplied cache stats.
func (m *Metrics) SnapshotWith(cache mat2c.CacheStats) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		InFlight:         m.inflight,
		Compiles:         m.compiles,
		CompileHits:      m.cacheHits,
		VMFaults:         m.vmFaults,
		TargetLoadErrors: m.targetLoadErrors,
		Requests:         map[string]EndpointSnapshot{},
		Stages:           map[string]HistogramSnapshot{},
		Cache:            cache,
		CompileMemo:      core.MemoStats(),
	}
	d, i := m.jobs["dse"], m.jobs["isx"]
	s.DSE = DSESnapshot{
		Sweeps:            d.started,
		Running:           d.running,
		Failures:          d.failures,
		Cancelled:         d.cancelled,
		VariantsEvaluated: m.dseVariants,
		CacheLookups:      m.dseCacheLookups,
		CacheHits:         m.dseCacheHits,
		LastFrontierSize:  d.last,
	}
	if m.dseCacheLookups > 0 {
		s.DSE.CacheHitRate = float64(m.dseCacheHits) / float64(m.dseCacheLookups)
	}
	if len(m.queueShed) > 0 {
		s.QueueShed = map[string]uint64{}
		for q, n := range m.queueShed {
			s.QueueShed[q] = n
		}
	}
	runs := isx.RunStats()
	s.ISX = ISXSnapshot{
		Mines:          i.started,
		Running:        i.running,
		Failures:       i.failures,
		Cancelled:      i.cancelled,
		LastCandidates: i.last,
		Runs:           ISXRunsSnapshot{Simulated: runs.EventMisses, Priced: runs.EventMemoHits + runs.EventHits},
	}
	s.VM = VMSnapshot{Compiled: vm.CompiledStats()}
	for name, e := range m.requests {
		s.Requests[name] = EndpointSnapshot{
			Count:     e.count,
			Errors:    e.errors,
			Timeouts:  e.timeouts,
			Cancelled: e.cancelled,
			Panics:    e.panics,
			Latency:   e.latency.snapshot(),
		}
	}
	for name, h := range m.stages {
		s.Stages[name] = h.snapshot()
	}
	return s
}
