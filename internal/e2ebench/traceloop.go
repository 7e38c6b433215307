package e2ebench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/service"
)

// handlerTimer wraps the service's handler and, while on, records a
// span around every request it serves.
type handlerTimer struct {
	next http.Handler
	rec  *Recorder
	on   atomic.Bool
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.rec.BeginAsync("service.handler", r.Header.Get(seqHeader))
	h.next.ServeHTTP(w, r)
	h.rec.End(id, "")
}

// traceLoop runs the run-loop workload against an in-process service —
// the same service.New that mat2cd runs — behind a timing middleware,
// with a timing wrapper on its disk store. Open-loop windows alternate
// untraced and traced; per-layer values come from the traced ones.
func traceLoop(ctx context.Context, cfg Config, dir string, rec *Record) (*traceFile, error) {
	cat, err := catalog(cfg.Quick)
	if err != nil {
		return nil, err
	}
	for _, e := range cat {
		e.want = e.kernel.Reference(e.kernel.Inputs(e.n))
	}
	disk, err := artifact.OpenDisk(filepath.Join(dir, "store"), 0)
	if err != nil {
		return nil, err
	}
	tr := NewRecorder(false)
	svc := service.New(service.Config{Workers: connections, Store: TimedStore(disk, tr, "artifact.disk_")})
	timer := &handlerTimer{next: svc.Handler(), rec: tr}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: timer, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Shutdown(ctx)
		<-served
		svc.Shutdown()
	}()
	c := newClient("http://" + ln.Addr().String())
	defer c.close()
	if err := checkWarm(c.warm(cat)); err != nil {
		return nil, err
	}

	st := &loopStats{rec: rec}
	win, n := loopWindows(cfg.Seconds)
	var untracedP50, tracedP50 []float64
	var tf *traceFile
	for w := 0; w < n; w++ {
		reqs := drawRequests(cat, cfg.Seed, "open", w, int(openRate*win.Seconds()))
		traced := w%2 == 1
		svc.Cache().Flush()
		tr.take() // drop the spans of untraced traffic
		before := svc.Cache().Stats()
		timer.on.Store(traced)
		t0 := time.Now()
		samples := c.openLoop(reqs, openRate)
		wall := time.Since(t0)
		timer.on.Store(false)
		svc.Cache().Flush()
		after := svc.Cache().Stats()

		var lat []float64
		for i := range samples {
			if samples[i].err == nil {
				lat = append(lat, ms(samples[i].latency()))
			}
		}
		checkStart := time.Now()
		replies := st.tally(fmt.Sprintf("window %d", w), samples)
		checkTime := time.Since(checkStart)
		if !traced {
			untracedP50 = append(untracedP50, Percentile(lat, 0.5))
			continue
		}
		tracedP50 = append(tracedP50, Percentile(lat, 0.5))
		for i := range samples {
			s := &samples[i]
			tr.record("loadgen.request", s.req.entry.name(), strconv.Itoa(s.status), s.due, s.done)
		}
		spans := tr.take()
		p := passMetrics{}
		p.layerTimes(Aggregate(spans))
		p.loopMetrics(samples, replies, spans)
		p.cacheCounts(before, after)
		p["bench.verify"] = ms(checkTime)
		p["trace.wall_ms"] = ms(wall)
		p.addTo(rec, ms(wall))
		tf = newTraceFile(spans, wall, 0)
	}
	rec.Result.Attempted = st.sent
	rec.Result.Failed += st.errors + st.wrong
	if len(untracedP50) > 0 {
		rec.Samples["trace.overhead_pct"] = []float64{100 * (Median(tracedP50)/Median(untracedP50) - 1)}
	}
	return tf, nil
}

// loopMetrics derives one traced window's service-side times from its
// samples, the decoded replies and the handler spans: compile stages
// (from each reply's stages_us), the cache lookup's own time, the
// cache-key hash the service computes before the lookup, the rest of
// the handler time (request and argument decoding, simulation,
// encoding), and the transport time (round trip minus handler).
func (p passMetrics) loopMetrics(samples []sample, replies []runReply, spans []Span) {
	handler := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == "service.handler" {
			handler[s.Item] = s.dur()
		}
	}
	var lookups, keys, stages, run, transport time.Duration
	for i := range samples {
		s := &samples[i]
		h := handler[strconv.FormatInt(s.seq, 10)]
		lookup := time.Duration(replies[i].ElapsedUS) * time.Microsecond
		key := keyProbe(s)
		lookups += lookup
		keys += key
		run += h - lookup - key
		if s.err == nil {
			transport += s.done.Sub(s.sent) - h
		}
		switch {
		case s.status == http.StatusServiceUnavailable:
			p["service.queue_shed"]++
			p["service.status_5xx"]++
		case s.status >= 500:
			p["service.status_5xx"]++
		}
		for stage, us := range replies[i].StagesUS {
			d := time.Duration(us) * time.Microsecond
			stages += d
			p[stageSpan(stage)] += ms(d)
		}
	}
	p["mat2c.resolve"] = ms(lookups-stages) - p["artifact.disk_get"]
	p["mat2c.key"] = ms(keys)
	p["service.run"] = ms(run)
	p["service.transport"] = ms(transport)
	p["loadgen.sent"] = float64(len(samples))
}

// keyProbe times, after the window, the cache-key hash the service
// computed for a request before starting its elapsed_us clock.
func keyProbe(s *sample) time.Duration {
	e := s.req.entry
	params, err := mat2c.ParseTypes(e.params)
	if err != nil {
		return 0 // the request itself failed the same way
	}
	t0 := time.Now()
	if _, err := mat2c.CacheKey(s.req.source, e.kernel.Entry, params, mat2c.Options{Target: e.target, SkipC: true}); err != nil {
		return 0
	}
	return time.Since(t0)
}
