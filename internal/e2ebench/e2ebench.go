// Package e2ebench is the end-to-end benchmark of the compiler and the
// services around it. It measures what users wait on — a design-space
// exploration sweep and a /run request against mat2cd — by driving the
// real asipdse and mat2cd binaries as child processes, and it breaks
// the same work down by layer with an in-process traced pass that times
// the calls into each layer's public functions.
//
// Four workloads stress different layers (see cmd/e2ebench/README.md
// for why each exists):
//
//	dse-cold    asipdse sweeps with no cache tier: compile-heavy
//	dse-warm    asipdse sweeps over a populated -cachedir: zero compiles
//	dse-remote  asipdse sweeps with an empty -cachedir behind a warm
//	            mat2cd -artifactserve origin: every lookup is a remote GET
//	run-loop    a long-lived mat2cd under an open loop of /run requests,
//	            then a closed loop that measures its capacity
//
// The seed changes only the generated inputs: the sweep's cost-override
// set and the request mix. Every output is checked: sweep reports must
// be free of errors and byte-identical after normalization, and every
// /run response is decoded and verified against the kernel's Go
// reference.
package e2ebench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Workloads lists the benchmark's workloads in run order.
var Workloads = []string{"dse-cold", "dse-warm", "dse-remote", "run-loop"}

// Metric describes one reported number. The lists below mirror
// BENCHMARK.json at the repository root, which also fixes each
// end-to-end metric's regression bound; a test keeps the two in sync.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// EndToEnd lists the metrics of an untraced run, reported on every
// workload. A sweep workload's operation is one asipdse process; the
// run-loop's operation is one /run request.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower"},
	{"latency_ms", "ms", "lower"},
	{"cpu_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"sim_cycles_geomean", "cycles", "lower"},
	{"code_size_total", "instrs", "lower"},
}

// PerLayer lists the metrics of a traced run, reported on every
// workload; a layer a workload does not exercise reports zero. A
// layer's time is its self time as a share of the traced wall time
// (trace.wall_ms): on a serial sweep pass the shares add up to 100%;
// under the run-loop's concurrent requests they are busy shares.
var PerLayer = []Metric{
	{"mlang.parse_pct", "%", "lower"},
	{"sema.analyze_pct", "%", "lower"},
	{"lower.lower_pct", "%", "lower"},
	{"opt.optimize_pct", "%", "lower"},
	{"vectorize.apply_pct", "%", "lower"},
	{"isel.apply_pct", "%", "lower"},
	{"vm.lower_pct", "%", "lower"},
	{"mat2c.key_pct", "%", "lower"},
	{"mat2c.resolve_pct", "%", "lower"},
	{"mat2c.flush_pct", "%", "lower"},
	{"mat2c.lookups", "count", "lower"},
	{"mat2c.mem_hits", "count", "higher"},
	{"mat2c.compiles", "count", "lower"},
	{"mat2c.disk_hits", "count", "higher"},
	{"mat2c.remote_hits", "count", "higher"},
	{"mat2c.flight_waits", "count", "lower"},
	{"mat2c.evictions", "count", "lower"},
	{"mat2c.served_ratio", "ratio", "higher"},
	{"artifact.disk_get_pct", "%", "lower"},
	{"artifact.disk_gets", "count", "lower"},
	{"artifact.disk_put_pct", "%", "lower"},
	{"artifact.disk_puts", "count", "lower"},
	{"artifact.decode_errors", "count", "lower"},
	{"remote.get_pct", "%", "lower"},
	{"remote.gets", "count", "lower"},
	{"remote.has_pct", "%", "lower"},
	{"remote.put_pct", "%", "lower"},
	{"remote.puts", "count", "lower"},
	{"remote.retries", "count", "lower"},
	{"remote.breaker_trips", "count", "lower"},
	{"remote.bytes_in", "bytes", "lower"},
	{"vm.prepare_pct", "%", "lower"},
	{"vm.exec_pct", "%", "lower"},
	{"vm.instrs_per_s", "1/s", "higher"},
	{"bench.inputs_pct", "%", "lower"},
	{"bench.reference_pct", "%", "lower"},
	{"bench.verify_pct", "%", "lower"},
	{"dse.enumerate_pct", "%", "lower"},
	{"dse.assemble_pct", "%", "lower"},
	{"dse.variant_pct", "%", "lower"},
	{"dse.variants", "count", "lower"},
	{"service.run_pct", "%", "lower"},
	{"service.transport_pct", "%", "lower"},
	{"service.queue_shed", "count", "lower"},
	{"service.status_5xx", "count", "lower"},
	{"loadgen.sent", "count", "higher"},
	{"trace.wall_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unattributed_pct", "%", "lower"},
}

// Config selects one benchmark run.
type Config struct {
	Workload string
	// Seed drives every generated input; the same seed gives the same
	// sweep spec and request bytes.
	Seed uint64
	// Seconds is how long the measured phase runs.
	Seconds time.Duration
	// Quick shrinks the run to a smoke test: one setup, tiny problem
	// sizes, a capped sweep and a single short window.
	Quick bool
	// WorkDir holds binaries, cache directories, logs and trace files.
	WorkDir string
	// Log receives human-readable progress and metric tables.
	Log io.Writer
}

// Value is one metric reading.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's machine-readable verdict, printed as the
// last line of standard output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Record is one run as written by -out and read by -compare: the
// result, the per-operation samples behind its medians, supporting
// numbers that are not metrics (tail latencies, error counts), and the
// problems that made a run incorrect.
type Record struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Seconds  float64              `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Result   Result               `json:"result"`
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Extra    map[string]Value     `json:"extra,omitempty"`
	Problems []string             `json:"problems,omitempty"`
	// Report is the SHA-256 of a sweep workload's normalized report,
	// which must be the same on every sweep workload for one seed.
	Report string `json:"report_sha256,omitempty"`
}

func newRecord(cfg Config, trace bool) *Record {
	return &Record{
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
		Seconds:  cfg.Seconds.Seconds(),
		Trace:    trace,
		Result:   Result{Metrics: map[string]Value{}},
		Samples:  map[string][]float64{},
		Extra:    map[string]Value{},
	}
}

// set records a metric, taking its unit from the metric lists. A value
// that is not a finite number (a ratio over nothing measured) makes the
// run incorrect rather than the result line unprintable.
func (r *Record) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not a finite number (%v)", name, v)
		v = 0
	}
	r.Result.Metrics[name] = Value{Value: v, Unit: unitOf(name)}
}

// problem records an operation that failed or produced a wrong output.
func (r *Record) problem(format string, args ...interface{}) {
	r.Result.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// finish settles Correct and fills every listed metric the run did not
// set with zero, so each run reports the full list.
func (r *Record) finish(list []Metric) {
	for _, m := range list {
		if _, ok := r.Result.Metrics[m.Name]; !ok {
			r.Result.Metrics[m.Name] = Value{Unit: m.Unit}
		}
	}
	r.Result.Correct = r.Result.Failed == 0 && len(r.Problems) == 0
}

func unitOf(name string) string {
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("e2ebench: unlisted metric " + name)
}

// Print writes the record's metrics as a table, one per line with its
// unit, followed by the supporting numbers and any problems.
func (r *Record) Print(w io.Writer) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s seed=%d %s metrics (attempted %d, failed %d, correct %v)\n",
		r.Workload, r.Seed, kind, r.Result.Attempted, r.Result.Failed, r.Result.Correct)
	list := EndToEnd
	if r.Trace {
		list = PerLayer
	}
	for _, m := range list {
		v := r.Result.Metrics[m.Name]
		line := fmt.Sprintf("  %-26s %14.4f %s", m.Name, v.Value, v.Unit)
		if s := r.Samples[m.Name]; len(s) > 1 {
			q := Quartiles(s)
			line += fmt.Sprintf("   (median of n=%d, q1 %.4f, q3 %.4f)", len(s), q[0], q[2])
		}
		fmt.Fprintln(w, line)
	}
	for _, name := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", name, r.Extra[name].Value, r.Extra[name].Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// ResultLine is the JSON object the benchmark prints last.
func (r *Record) ResultLine() string {
	b, err := json.Marshal(r.Result)
	if err != nil {
		panic(err) // plain numbers, strings and bools always marshal
	}
	return string(b)
}
