package e2ebench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
	"mat2c/internal/bench"
	"mat2c/internal/dse"
)

// stageSpans maps the compiler's stage names (Result.StageTimings) to
// the span names of the modules that run them.
var stageSpans = map[string]string{
	"parse":     "mlang.parse",
	"sema":      "sema.analyze",
	"lower":     "lower.lower",
	"opt":       "opt.optimize",
	"vectorize": "vectorize.apply",
	"isel":      "isel.apply",
	"vm-lower":  "vm.lower",
	"cgen":      "cgen.emit",
}

// Trace runs one workload in-process, timing each call into a layer's
// public functions, and returns the per-layer record. It also writes
// the last traced pass's spans to WorkDir/trace-<workload>.json.
func Trace(ctx context.Context, cfg Config) (*Record, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rec := newRecord(cfg, true)
	var tf *traceFile
	switch cfg.Workload {
	case "dse-cold", "dse-warm", "dse-remote":
		tf, err = traceSweeps(ctx, cfg, dir, rec)
	case "run-loop":
		tf, err = traceLoop(ctx, cfg, dir, rec)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, Workloads)
	}
	if err != nil {
		return nil, err
	}
	for name, vs := range rec.Samples {
		rec.set(name, Median(vs))
	}
	rec.finish(PerLayer)
	tf.Workload, tf.Seed = cfg.Workload, cfg.Seed
	path := filepath.Join(cfg.WorkDir, "trace-"+cfg.Workload+".json")
	if err := tf.write(path); err != nil {
		return nil, err
	}
	if cfg.Log != nil {
		tf.printSelf(cfg.Log)
		fmt.Fprintf(cfg.Log, "spans written to %s\n", path)
	}
	return rec, nil
}

// traceFile is what a traced run writes: the last traced pass's spans
// and their self times per span name.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	WallMS     float64            `json:"wall_ms"`
	UntracedMS float64            `json:"untraced_ms"`
	SelfMS     map[string]float64 `json:"self_ms"`
	Calls      map[string]int     `json:"calls"`
	Spans      []Span             `json:"spans"`
}

func newTraceFile(spans []Span, wall, untraced time.Duration) *traceFile {
	l := Aggregate(spans)
	tf := &traceFile{WallMS: ms(wall), UntracedMS: ms(untraced), SelfMS: map[string]float64{}, Calls: l.Count, Spans: spans}
	for name, d := range l.Self {
		tf.SelfMS[name] = ms(d)
	}
	return tf
}

func (tf *traceFile) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelf writes the self-time table, largest first, with each span
// name's share of the pass's wall time.
func (tf *traceFile) printSelf(w io.Writer) {
	names := sortedKeys(tf.SelfMS)
	sort.SliceStable(names, func(i, j int) bool { return tf.SelfMS[names[i]] > tf.SelfMS[names[j]] })
	fmt.Fprintf(w, "self time per span, last traced pass of %s (wall %.1f ms excluding probes", tf.Workload, tf.WallMS)
	if tf.UntracedMS > 0 {
		fmt.Fprintf(w, "; the untraced pass took %.1f ms", tf.UntracedMS)
	}
	fmt.Fprintln(w, ")")
	for _, name := range names {
		fmt.Fprintf(w, "  %-22s %10.1f ms %7d calls %6.1f%%\n",
			name, tf.SelfMS[name], tf.Calls[name], 100*tf.SelfMS[name]/tf.WallMS)
	}
}

// passMetrics holds one traced pass's values: listed metrics by name,
// and layer self times in ms by span name, which addTo reports as
// shares of the pass's wall time. The record reports each metric's
// median over the passes.
type passMetrics map[string]float64

func (p passMetrics) addTo(rec *Record, wallMS float64) {
	for _, m := range PerLayer {
		v, ok := p[m.Name]
		if span := strings.TrimSuffix(m.Name, "_pct"); !ok && span != m.Name {
			v, ok = 100*p[span]/wallMS, true
		}
		if ok {
			rec.Samples[m.Name] = append(rec.Samples[m.Name], v)
		}
	}
}

// layerTimes takes every span name's self time and the store calls'
// counts from the spans.
func (p passMetrics) layerTimes(l Layers) {
	for name, d := range l.Self {
		p[name] = ms(d)
	}
	p["artifact.disk_gets"] = float64(l.Count["artifact.disk_get"])
	p["artifact.disk_puts"] = float64(l.Count["artifact.disk_put"])
	p["remote.gets"] = float64(l.Count["remote.get"])
	p["remote.puts"] = float64(l.Count["remote.put"])
}

// cacheCounts fills the cache-tier counters from a stats delta.
func (p passMetrics) cacheCounts(before, after mat2c.CacheStats) {
	lookups := float64((after.Hits + after.Misses) - (before.Hits + before.Misses))
	compiles := float64(after.Compiles - before.Compiles)
	p["mat2c.lookups"] = lookups
	p["mat2c.mem_hits"] = float64(after.Hits - before.Hits)
	p["mat2c.compiles"] = compiles
	p["mat2c.disk_hits"] = float64(after.DiskHits - before.DiskHits)
	p["mat2c.remote_hits"] = float64(after.RemoteHits - before.RemoteHits)
	p["mat2c.flight_waits"] = float64(after.FlightWaits - before.FlightWaits)
	p["mat2c.evictions"] = float64(after.Evictions - before.Evictions)
	if lookups > 0 {
		p["mat2c.served_ratio"] = (lookups - compiles) / lookups
	}
	p["artifact.decode_errors"] = float64((after.DecodeErrors + after.RemoteDecodeErrors) -
		(before.DecodeErrors + before.RemoteDecodeErrors))
	if after.Remote != nil {
		var b artifact.Stats
		if before.Remote != nil {
			b = *before.Remote
		}
		p["remote.retries"] = float64(after.Remote.Retries - b.Retries)
		p["remote.breaker_trips"] = float64(after.Remote.BreakerTrips - b.BreakerTrips)
		p["remote.bytes_in"] = float64(after.Remote.BytesIn - b.BytesIn)
	}
}

// ---- Sweep workloads ----

// sweepTiers builds each pass's cache the way asipdse does for the
// workload: no store, the populated disk store, or a fresh disk store
// in front of the origin.
type sweepTiers struct {
	workload string
	dir      string
	store    string // dse-warm: the populated store
	origin   string // dse-remote: the origin's blob endpoint
	fresh    int
}

// cache returns a new cache over the workload's tiers; rec, when
// non-nil, times every call into them.
func (t *sweepTiers) cache(rec *Recorder) (*mat2c.Cache, error) {
	c := mat2c.NewCache(0)
	wrap := func(s artifact.Store, prefix string) artifact.Store {
		if rec == nil {
			return s
		}
		return TimedStore(s, rec, prefix)
	}
	store := t.store
	if t.workload == "dse-remote" {
		// Passes run one at a time and flush before the next begins, so
		// the previous pass's local store is no longer in use.
		os.RemoveAll(filepath.Join(t.dir, fmt.Sprintf("local-%d", t.fresh)))
		t.fresh++
		store = filepath.Join(t.dir, fmt.Sprintf("local-%d", t.fresh))
	}
	if store != "" {
		s, err := artifact.OpenDisk(store, 0)
		if err != nil {
			return nil, err
		}
		c.SetStore(wrap(s, "artifact.disk_"))
	}
	if t.origin != "" {
		c.SetRemoteStore(wrap(remote.New(t.origin, remote.Options{}), "remote."))
	}
	return c, nil
}

// traceSweeps runs pairs of in-process passes of a sweep workload — one
// untraced, one traced — serially (one job) until the measured phase is
// over.
func traceSweeps(ctx context.Context, cfg Config, dir string, rec *Record) (*traceFile, error) {
	spec, err := SweepSpec(cfg.Seed, cfg.Quick)
	if err != nil {
		return nil, err
	}
	sw, err := dse.ParseSweep(spec)
	if err != nil {
		return nil, err
	}
	sweeps := []*dse.Sweep{sw}
	scale := sweepScale
	if cfg.Quick {
		scale = quickScale
	}
	explore := func(c *mat2c.Cache) (*dse.Report, error) {
		rep, err := dse.ExploreContext(ctx, sweeps, dse.Options{Jobs: 1, Scale: scale, Cache: c})
		c.Flush()
		return rep, err
	}
	tiers := &sweepTiers{workload: cfg.Workload, dir: dir}

	// Set-up, as in the untraced workload.
	switch cfg.Workload {
	case "dse-warm":
		tiers.store = filepath.Join(dir, "store")
	case "dse-remote":
		origin, err := artifact.OpenDisk(filepath.Join(dir, "origin"), 0)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: remote.NewServer(origin, 0).Handler(), ReadHeaderTimeout: 10 * time.Second}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln)
		}()
		defer func() {
			srv.Close()
			<-served
		}()
		tiers.origin = "http://" + ln.Addr().String() + "/artifact"
	}
	if cfg.Workload != "dse-cold" {
		c, err := tiers.cache(nil)
		if err != nil {
			return nil, err
		}
		if _, err := explore(c); err != nil {
			return nil, fmt.Errorf("set-up sweep: %w", err)
		}
	}

	var tf *traceFile
	begin := time.Now()
	for n := 0; n == 0 || time.Since(begin) < cfg.Seconds; n++ {
		c, err := tiers.cache(nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		want, err := explore(c)
		untraced := time.Since(t0)
		if err != nil {
			return nil, err
		}

		tr := NewRecorder(true)
		if c, err = tiers.cache(tr); err != nil {
			return nil, err
		}
		before := c.Stats()
		got, executed, err := tracedSweep(ctx, tr, sweeps, scale, c)
		if err != nil {
			return nil, err
		}
		rec.Result.Attempted += len(got)
		for i := range got {
			w := want.Variants[i]
			if got[i].TotalCycles != w.TotalCycles || got[i].CodeSize != w.CodeSize {
				rec.problem("traced pass drifted from the untraced report on %s: %d cycles, %d instrs; untraced %d, %d",
					got[i].Name, got[i].TotalCycles, got[i].CodeSize, w.TotalCycles, w.CodeSize)
			}
		}

		spans := tr.take()
		l := Aggregate(spans)
		p := passMetrics{}
		p.layerTimes(l)
		p.cacheCounts(before, c.Stats())
		if err := tierCheck(cfg.Workload, p); err != nil {
			rec.problem("traced pass %d: %v", n, err)
		}
		p["vm.instrs_per_s"] = float64(executed) / l.Self["vm.exec"].Seconds()
		p["dse.variants"] = float64(len(got))
		p["trace.wall_ms"] = ms(l.Wall)
		p["trace.overhead_pct"] = 100 * (l.Wall.Seconds()/untraced.Seconds() - 1)
		p["trace.unattributed_pct"] = 100 * l.Self["trace.pass"].Seconds() / l.Wall.Seconds()
		p.addTo(rec, ms(l.Wall))
		tf = newTraceFile(spans, l.Wall, untraced)
	}
	return tf, nil
}

// tierCheck confirms a traced pass exercised the tier its workload is
// about: no cache tier on dse-cold, and every lookup served from disk
// on dse-warm and from the remote on dse-remote.
func tierCheck(workload string, p passMetrics) error {
	lookups := p["mat2c.lookups"]
	var served float64
	switch workload {
	case "dse-cold":
		served = lookups - p["mat2c.compiles"]
		lookups = 0
	case "dse-warm":
		served = p["mat2c.disk_hits"]
	case "dse-remote":
		served = p["mat2c.remote_hits"]
	}
	if served != lookups {
		return fmt.Errorf("%v of %v lookups served by the %s tier", served, p["mat2c.lookups"], workload)
	}
	return nil
}

// tracedSweep evaluates the sweep the way dse.ExploreContext does with
// one job — enumerate, then for each variant and kernel the steps of
// the per-variant evaluation, then assemble — with a span around each
// call. It returns the variant results (to check against the untraced
// report) and the simulated instruction count.
func tracedSweep(ctx context.Context, tr *Recorder, sweeps []*dse.Sweep, scale float64, cache *mat2c.Cache) ([]dse.VariantResult, int64, error) {
	root := tr.Begin("trace.pass", "")
	defer tr.End(root, "")

	id := tr.Begin("dse.enumerate", "")
	variants, bases, err := dse.EnumerateAll(ctx, sweeps)
	tr.End(id, "")
	if err != nil {
		return nil, 0, err
	}
	kernels := bench.Kernels()
	results := make([]dse.VariantResult, len(variants))
	var executed int64
	for i, v := range variants {
		vid := tr.Begin("dse.variant", v.Proc.Name)
		vr := dse.VariantResult{
			Name:         v.Proc.Name,
			SIMDWidth:    v.Proc.SIMDWidth,
			ComplexLanes: v.Proc.ComplexLanes,
			Groups:       v.Groups,
			CostSet:      v.CostSet,
			Instructions: len(v.Proc.Instructions),
			KernelCycles: make(map[string]int64, len(kernels)),
		}
		for j := range v.Proc.Instructions {
			vr.ISACost += 1 + v.Proc.IssueCost(&v.Proc.Instructions[j])
		}
		for _, k := range kernels {
			item := v.Proc.Name + "/" + k.Name
			opts := mat2c.Options{Processor: v.Proc, SkipC: true}
			vr.CacheLookups++

			pid := tr.BeginProbe("mat2c.key", item)
			_, err := mat2c.CacheKey(k.Source, k.Entry, k.Params, opts)
			tr.End(pid, "")
			if err != nil {
				return nil, 0, err
			}
			rid := tr.Begin("mat2c.resolve", item)
			res, hit, err := mat2c.CompileCachedContext(ctx, cache, k.Source, k.Entry, k.Params, opts)
			tr.End(rid, resolveOutcome(tr, rid, hit))
			if err != nil {
				return nil, 0, fmt.Errorf("%s: compile: %w", item, err)
			}
			if hit {
				vr.CacheHits++
			} else {
				stageChildren(tr, rid, res.StageTimings())
			}

			id = tr.Begin("bench.inputs", item)
			args := k.Inputs(bench.SizeFor(k, scale))
			tr.End(id, "")
			id = tr.Begin("bench.reference", item)
			want := k.Reference(bench.CloneArgs(args))
			tr.End(id, "")
			runArgs := bench.CloneArgs(args)
			id = tr.BeginProbe("trace.clone", item)
			rerunArgs := bench.CloneArgs(args)
			tr.End(id, "")

			// The first run on a Result pays preparation; an immediate
			// re-run finds it prepared, so the difference is prepare time.
			run := tr.Begin("vm.run", item)
			out, stats, err := res.RunWithStatsContext(ctx, runArgs...)
			tr.End(run, "")
			if err != nil {
				return nil, 0, fmt.Errorf("%s: run: %w", item, err)
			}
			id = tr.BeginProbe("vm.rerun", item)
			_, _, err = res.RunWithStatsContext(ctx, rerunArgs...)
			tr.End(id, "")
			if err != nil {
				return nil, 0, fmt.Errorf("%s: re-run: %w", item, err)
			}
			splitRun(tr, run, tr.span(id).dur())

			id = tr.Begin("bench.verify", item)
			err = bench.Verify(out, want)
			tr.End(id, "")
			if err != nil {
				return nil, 0, fmt.Errorf("%s: verify: %w", item, err)
			}
			vr.KernelCycles[k.Name] = stats.Cycles
			vr.TotalCycles += stats.Cycles
			vr.CodeSize += res.CodeSize()
			executed += stats.Executed
		}
		tr.End(vid, "")
		results[i] = vr
	}
	id = tr.Begin("dse.assemble", "")
	_, err = dse.Assemble(bases, dse.Options{Jobs: 1, Scale: scale}, results)
	tr.End(id, "")
	if err != nil {
		return nil, 0, err
	}
	id = tr.Begin("mat2c.flush", "")
	cache.Flush()
	tr.End(id, "")
	return results, executed, nil
}

// resolveOutcome names the tier that served a lookup from its tier
// calls: a fresh compile, the remote, the disk, or memory (which
// includes joining another caller's compile).
func resolveOutcome(tr *Recorder, id int, hit bool) string {
	switch {
	case !hit:
		return "compile"
	case tr.childOutcome(id, "remote.get", "ok"):
		return "remote"
	case tr.childOutcome(id, "artifact.disk_get", "ok"):
		return "disk"
	default:
		return "mem"
	}
}

// stageChildren records a compile's stage timings as child spans of its
// lookup, laid end to end so they finish when the lookup does.
func stageChildren(tr *Recorder, parent int, stages []mat2c.StageTime) {
	var total time.Duration
	for _, st := range stages {
		total += st.Duration
	}
	at := tr.span(parent).End - total
	for _, st := range stages {
		if st.Duration > 0 {
			tr.child(parent, stageSpan(st.Stage), at, at+st.Duration)
			at += st.Duration
		}
	}
}

// stageSpan names a compile stage's span; a stage the table does not
// know yet keeps its own name under core.
func stageSpan(stage string) string {
	if name, ok := stageSpans[stage]; ok {
		return name
	}
	return "core." + stage
}

// splitRun divides a first run into preparation (its excess over the
// re-run, never negative) and execution, as child spans.
func splitRun(tr *Recorder, run int, rerun time.Duration) {
	s := tr.span(run)
	prep := s.dur() - rerun
	if prep < 0 {
		prep = 0
	}
	tr.child(run, "vm.prepare", s.Start, s.Start+prep)
	tr.child(run, "vm.exec", s.Start+prep, s.End)
}
