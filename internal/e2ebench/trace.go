package e2ebench

import (
	"errors"
	"sync"
	"time"

	"mat2c/internal/artifact"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are offsets from the recorder's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Item names the work: a variant/kernel pair, a request, a key.
	Item string `json:"item,omitempty"`
	// Outcome is how the call ended: the cache tier that served a
	// lookup, or ok/miss/error for a store call.
	Outcome string `json:"outcome,omitempty"`
	// Probe marks extra work the traced pass adds to take a measurement
	// (a second cache-key hash, a re-run); probes are excluded from the
	// pass's wall time.
	Probe bool `json:"probe,omitempty"`
	// Async marks a call made off the traced goroutine (asynchronous
	// store writes, concurrent request handling): it ran beside the
	// traced spans, not inside them.
	Async bool `json:"async,omitempty"`
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run writes them out. In
// serial mode one goroutine opens and closes nested spans (a stack
// gives each its parent); calls from other goroutines are recorded as
// async spans.
type Recorder struct {
	serial bool
	t0     time.Time

	mu    sync.Mutex
	spans []Span
	base  int   // spans handed out by take; IDs keep counting past them
	stack []int // open span IDs of the traced goroutine
}

// NewRecorder returns an empty recorder; serial selects nesting by the
// calling goroutine's open spans.
func NewRecorder(serial bool) *Recorder {
	return &Recorder{serial: serial, t0: time.Now()}
}

// Begin opens a span nested in the innermost open span.
func (r *Recorder) Begin(name, item string) int { return r.begin(name, item, false, false) }

// BeginProbe opens a probe span (see Span.Probe).
func (r *Recorder) BeginProbe(name, item string) int { return r.begin(name, item, true, false) }

// BeginAsync opens a span for a call made off the traced goroutine.
func (r *Recorder) BeginAsync(name, item string) int { return r.begin(name, item, false, true) }

func (r *Recorder) begin(name, item string, probe, async bool) int {
	start := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	async = async || !r.serial
	s := Span{ID: r.base + len(r.spans) + 1, Name: name, Item: item, Start: start, Probe: probe, Async: async}
	if !async && len(r.stack) > 0 {
		s.Parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, s)
	if !async {
		r.stack = append(r.stack, s.ID)
	}
	return s.ID
}

// at returns the span with the given ID, or nil once take handed it out.
func (r *Recorder) at(id int) *Span {
	if i := id - r.base - 1; i >= 0 && i < len(r.spans) {
		return &r.spans[i]
	}
	return nil
}

// End closes span id with an outcome ("" for none).
func (r *Recorder) End(id int, outcome string) {
	end := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.at(id); s != nil {
		s.End, s.Outcome = end, outcome
	}
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
}

// add appends a finished span.
func (r *Recorder) add(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = r.base + len(r.spans) + 1
	r.spans = append(r.spans, s)
}

// child records a finished span inside parent with explicit times (for
// work timed by the layer itself, such as compile stages).
func (r *Recorder) child(parent int, name string, start, end time.Duration) {
	r.add(Span{Parent: parent, Name: name, Item: r.span(parent).Item, Start: start, End: end})
}

// record adds a finished async span with explicit wall-clock times (for
// work timed from outside, such as a request seen by its client).
func (r *Recorder) record(name, item, outcome string, start, end time.Time) {
	r.add(Span{Name: name, Item: item, Outcome: outcome, Start: start.Sub(r.t0), End: end.Sub(r.t0), Async: true})
}

// take returns the spans recorded since the last take and starts
// afresh; a span still open is dropped when it ends.
func (r *Recorder) take() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.base += len(s)
	r.spans, r.stack = nil, nil
	return s
}

func (r *Recorder) span(id int) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return *r.at(id)
}

// childOutcome reports whether span parent has a direct child with the
// given name and outcome.
func (r *Recorder) childOutcome(parent int, name, outcome string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Children start after their parent: scan back only that far.
	for i := len(r.spans) - 1; i >= 0 && r.spans[i].ID > parent; i-- {
		if s := r.spans[i]; s.Parent == parent && s.Name == name && s.Outcome == outcome {
			return true
		}
	}
	return false
}

// Layers aggregates spans by name: self time (duration minus the time
// its child spans cover) and call count.
type Layers struct {
	Self  map[string]time.Duration
	Count map[string]int
	// Wall is the root spans' duration minus the probes inside them:
	// the time the traced pass would take without its measurements.
	Wall time.Duration
}

// Aggregate computes self times over spans.
func Aggregate(spans []Span) Layers {
	l := Layers{Self: map[string]time.Duration{}, Count: map[string]int{}}
	children := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		l.Self[s.Name] += s.dur() - children[s.ID]
		l.Count[s.Name]++
		switch {
		case s.Parent == 0 && !s.Async:
			l.Wall += s.dur()
		case s.Probe:
			l.Wall -= s.dur()
		}
	}
	return l
}

// timedStore times every call into an artifact.Store tier. Get and
// Delete run on the caller's goroutine inside a cache lookup, so they
// nest in the lookup's span; the cache makes Put and Has calls from its
// own goroutines, recorded as async spans.
type timedStore struct {
	s      artifact.Store
	rec    *Recorder
	prefix string // span-name prefix, e.g. "artifact.disk_" or "remote."
}

func storeOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, artifact.ErrNotFound):
		return "miss"
	default:
		return "error"
	}
}

func shortKey(key string) string {
	if len(key) > 16 {
		return key[:16]
	}
	return key
}

func (t *timedStore) Get(key string) ([]byte, error) {
	id := t.rec.Begin(t.prefix+"get", shortKey(key))
	data, err := t.s.Get(key)
	t.rec.End(id, storeOutcome(err))
	return data, err
}

func (t *timedStore) Put(key string, data []byte) error {
	id := t.rec.BeginAsync(t.prefix+"put", shortKey(key))
	err := t.s.Put(key, data)
	t.rec.End(id, storeOutcome(err))
	return err
}

func (t *timedStore) Delete(key string) error {
	id := t.rec.Begin(t.prefix+"delete", shortKey(key))
	err := t.s.Delete(key)
	t.rec.End(id, storeOutcome(err))
	return err
}

func (t *timedStore) Len() (int, error) { return t.s.Len() }

func (t *timedStore) has(key string) (bool, error) {
	id := t.rec.BeginAsync(t.prefix+"has", shortKey(key))
	ok, err := t.s.(artifact.Checker).Has(key)
	t.rec.End(id, storeOutcome(err))
	return ok, err
}

func (t *timedStore) stats() artifact.Stats { return t.s.(artifact.StatsReporter).Stats() }

// The cache probes a tier for artifact.Checker (to skip re-uploading
// what a remote already holds) and artifact.StatsReporter (for its
// stats), so the timing wrapper must offer exactly the optional
// interfaces the wrapped store does: one type per combination.
type (
	checkerStore         struct{ *timedStore }
	reporterStore        struct{ *timedStore }
	checkerReporterStore struct{ *timedStore }
)

func (s checkerStore) Has(key string) (bool, error)         { return s.has(key) }
func (s reporterStore) Stats() artifact.Stats               { return s.stats() }
func (s checkerReporterStore) Has(key string) (bool, error) { return s.has(key) }
func (s checkerReporterStore) Stats() artifact.Stats        { return s.stats() }

// TimedStore wraps s so every call into it is recorded in rec under
// span names starting with prefix. The result implements
// artifact.Checker and artifact.StatsReporter exactly when s does.
func TimedStore(s artifact.Store, rec *Recorder, prefix string) artifact.Store {
	t := &timedStore{s: s, rec: rec, prefix: prefix}
	_, checker := s.(artifact.Checker)
	_, reporter := s.(artifact.StatsReporter)
	switch {
	case checker && reporter:
		return checkerReporterStore{t}
	case checker:
		return checkerStore{t}
	case reporter:
		return reporterStore{t}
	default:
		return t
	}
}
