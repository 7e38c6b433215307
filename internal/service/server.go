// Package service implements mat2cd, the long-lived compile-and-simulate
// server: an HTTP/JSON front end over the mat2c pipeline with a
// content-addressed compilation cache, a bounded worker pool with
// per-request timeouts and panic containment, and per-stage compiler
// metrics. It is the serving layer the batch compiler lacks — repeated
// compilations of identical inputs (the common shape of design-space
// exploration loops, where the same kernels are rebuilt against many
// candidate processor descriptions) hit the cache instead of re-running
// the pipeline.
//
// Endpoints:
//
//	POST /compile  MATLAB source + types + target → C artifacts + stats
//	POST /run      compile + execute on the cycle-model simulator
//	POST /dse      launch an async design-space exploration sweep
//	GET  /dse      list sweep jobs
//	GET  /dse/{id} sweep progress and, once done, the Pareto report
//	POST /isx      launch an async instruction-set-extension mine
//	GET  /isx      list mining jobs
//	GET  /isx/{id} mining state and, once done, the candidate report
//	GET  /targets  built-in processor catalog
//	GET  /healthz  liveness + in-flight gauge
//	GET  /metrics  JSON counters: requests, cache, per-stage histograms
//	GET  /fleet    fleet role, worker health, and queue depth
//
// In a sweep fleet (docs/FLEET.md) the same daemon also serves the
// coordinator side (POST /fleet/register, POST /fleet/deregister) or
// the worker side (POST /fleet/unit) of the sharding protocol,
// selected by Config.Role. With Config.ArtifactServe it additionally
// mounts the blob-protocol artifact server at /artifact (see
// internal/artifact/remote), making the daemon the fleet's shared
// cache origin; a coordinator advertises the endpoint to registering
// workers.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
	"mat2c/internal/dse"
	"mat2c/internal/fleet"
	"mat2c/internal/isx"
	"mat2c/internal/vm"
)

// Role selects the daemon's place in a sweep fleet (see docs/FLEET.md).
type Role int

const (
	// RoleSingle is the classic standalone daemon: sweeps and mines run
	// in-process.
	RoleSingle Role = iota
	// RoleCoordinator accepts /dse and /isx jobs as usual but shards
	// them into work units dispatched to registered workers.
	RoleCoordinator
	// RoleWorker executes fleet work units (POST /fleet/unit) on a
	// bounded sweep queue, separate from the interactive /run slots.
	RoleWorker
)

func (r Role) String() string {
	switch r {
	case RoleCoordinator:
		return "coordinator"
	case RoleWorker:
		return "worker"
	default:
		return "single"
	}
}

// Config tunes the server. Zero values select sensible defaults.
type Config struct {
	// Workers bounds concurrent compile/run work (default: NumCPU).
	Workers int
	// CacheSize bounds the compilation cache entry count
	// (default mat2c.DefaultCacheSize).
	CacheSize int
	// Store, when non-nil, backs the compilation cache with a durable
	// artifact tier (see internal/artifact): memory misses consult it
	// before compiling and fresh compilations write through. A store
	// entry that fails to decode degrades to a recompile, never an
	// error.
	Store artifact.Store
	// Remote, when non-nil, attaches a fleet-shared artifact tier
	// behind Store (see internal/artifact/remote): consulted after a
	// local miss, written through on compile. Any remote failure —
	// outage, corruption, open circuit breaker — degrades to local
	// operation, never an error.
	Remote artifact.Store
	// ArtifactServe mounts the blob-protocol artifact server (GET/PUT/
	// HEAD/DELETE /artifact/{key}, stats at GET /artifact) over Store,
	// so this daemon doubles as the fleet's cache origin. Requires
	// Store; a coordinator serving artifacts advertises the endpoint to
	// registering workers.
	ArtifactServe bool
	// RequestTimeout bounds each compile/run request, queueing
	// included (default 30s).
	RequestTimeout time.Duration

	// Role selects single-process, coordinator, or worker operation.
	Role Role
	// Fleet tunes the coordinator's dispatcher (coordinator role only).
	Fleet fleet.Config
	// SweepSlots bounds concurrently executing fleet work units on a
	// worker. It is deliberately separate from Workers so sweep units
	// can never saturate the interactive /run pool
	// (default max(1, Workers/2)).
	SweepSlots int
}

const (
	// maxRequestBytes bounds request bodies.
	maxRequestBytes = 8 << 20
	// sweepQueuePerSlot sizes a worker's sweep queue, the units admitted
	// but not yet running, per sweep slot; a full queue sheds with 503 +
	// Retry-After.
	sweepQueuePerSlot = 2
	// shutdownGrace bounds how long Shutdown waits for
	// dispatched-but-unacked fleet units before recording them as
	// abandoned.
	shutdownGrace = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.CacheSize <= 0 {
		c.CacheSize = mat2c.DefaultCacheSize
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SweepSlots <= 0 {
		c.SweepSlots = c.Workers / 2
		if c.SweepSlots < 1 {
			c.SweepSlots = 1
		}
	}
	return c
}

// Server is the compile-and-simulate service state: cache, metrics,
// and the worker-pool semaphore. Create with New; serve via Handler.
type Server struct {
	cfg     Config
	cache   *mat2c.Cache
	metrics *Metrics
	slots   chan struct{}

	// jobsCtx parents every background job (/dse sweeps, /isx mines);
	// Shutdown cancels it so a stopping server reclaims its workers.
	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	// coord is the fleet dispatcher (coordinator role only).
	coord *fleet.Coordinator
	// artifacts is the blob-protocol server mounted at /artifact when
	// Config.ArtifactServe is set (nil otherwise).
	artifacts *remote.Server
	// sweepAdmit bounds fleet units admitted (queued or running) on a
	// worker; sweepSlots bounds the ones actually executing. Both are
	// separate from slots, so sweep traffic cannot starve interactive
	// /compile and /run requests.
	sweepAdmit chan struct{}
	sweepSlots chan struct{}

	// sweeps and mines are the /dse and /isx job registries (jobs.go).
	sweeps *jobs[dse.Report]
	mines  *jobs[isx.Report]
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	jobsCtx, jobsCancel := context.WithCancel(context.Background())
	m := NewMetrics()
	s := &Server{
		cfg:        cfg,
		cache:      mat2c.NewCache(cfg.CacheSize),
		metrics:    m,
		slots:      make(chan struct{}, cfg.Workers),
		jobsCtx:    jobsCtx,
		jobsCancel: jobsCancel,
		sweeps:     newJobs("dse", m, func(r *dse.Report) int { return len(r.Frontier) }),
		mines:      newJobs("isx", m, func(r *isx.Report) int { return len(r.Candidates) }),
	}
	if cfg.Store != nil {
		s.cache.SetStore(cfg.Store)
	}
	if cfg.Remote != nil {
		s.cache.SetRemoteStore(cfg.Remote)
	}
	if cfg.ArtifactServe && cfg.Store != nil {
		s.artifacts = remote.NewServer(cfg.Store, 0)
	}
	switch cfg.Role {
	case RoleCoordinator:
		s.coord = fleet.NewCoordinator(cfg.Fleet)
	case RoleWorker:
		s.sweepAdmit = make(chan struct{}, (1+sweepQueuePerSlot)*cfg.SweepSlots)
		s.sweepSlots = make(chan struct{}, cfg.SweepSlots)
	}
	return s
}

// Shutdown cancels the server's background work (running DSE sweeps
// and ISX mines observe the cancellation and stop). In coordinator
// mode it then waits — up to shutdownGrace — for every
// dispatched-but-unacked fleet work unit to come back; the
// cancellation has already propagated into the workers' request
// contexts, so acks arrive promptly, and any straggler past the grace
// period is recorded in the fleet's units_abandoned counter rather
// than dropped silently. In-flight HTTP requests are governed by their
// own request contexts — cancelling the http.Server's BaseContext
// propagates into their workers the same way. Shutdown is idempotent.
// Shutdown also drains the cache's asynchronous artifact-store
// write-throughs (Cache.Flush), so a durable store attached via
// Config.Store holds every compilation the process finished.
func (s *Server) Shutdown() {
	s.jobsCancel()
	if s.coord != nil {
		qctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		s.coord.Quiesce(qctx)
	}
	s.cache.Flush()
}

// Fleet exposes the coordinator (nil outside coordinator role; for
// tests and embedding servers).
func (s *Server) Fleet() *fleet.Coordinator { return s.coord }

// Config returns the server's effective (defaults-applied) configuration.
func (s *Server) Config() Config { return s.cfg }

// Metrics exposes the registry (for tests and embedding servers).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the compilation cache (for tests and warmup).
func (s *Server) Cache() *mat2c.Cache { return s.cache }

// Handler returns the service's HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("POST /run", s.handleRun)
	s.sweeps.route(mux, s.handleDSE)
	s.mines.route(mux, s.handleISX)
	mux.HandleFunc("GET /targets", s.handleTargets)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /fleet", s.handleFleetStatus)
	if s.artifacts != nil {
		s.artifacts.Mount(mux, "/artifact")
	}
	switch s.cfg.Role {
	case RoleCoordinator:
		mux.HandleFunc("POST /fleet/register", s.handleFleetRegister)
		mux.HandleFunc("POST /fleet/deregister", s.handleFleetDeregister)
	case RoleWorker:
		mux.HandleFunc("POST /fleet/unit", s.handleFleetUnit)
	}
	return mux
}

// CompileRequest is the /compile (and the compile half of /run) body.
// Params uses the CLI type syntax ("real(1,:), complex, int"); Target
// is a built-in name, an embedded description, or a server-side file
// path.
type CompileRequest struct {
	Source string `json:"source"`
	Entry  string `json:"entry,omitempty"`
	Params string `json:"params,omitempty"`
	Target string `json:"target,omitempty"`

	Baseline     bool `json:"baseline,omitempty"`
	NoVectorize  bool `json:"no_vectorize,omitempty"`
	NoIntrinsics bool `json:"no_intrinsics,omitempty"`
	OptLevel     int  `json:"opt_level,omitempty"`
	SkipC        bool `json:"skip_c,omitempty"`

	// NoCache bypasses the compilation cache for this request (the
	// result is still stored for future hits).
	NoCache bool `json:"no_cache,omitempty"`
}

func (req *CompileRequest) options() mat2c.Options {
	return mat2c.Options{
		Target:       req.Target,
		Baseline:     req.Baseline,
		NoVectorize:  req.NoVectorize,
		NoIntrinsics: req.NoIntrinsics,
		OptLevel:     req.OptLevel,
		SkipC:        req.SkipC,
	}
}

// CompileResponse is the /compile reply; /run embeds it.
type CompileResponse struct {
	Entry  string `json:"entry"`
	Target string `json:"target"`

	CacheKey  string `json:"cache_key"`
	CacheHit  bool   `json:"cache_hit"`
	ElapsedUS int64  `json:"elapsed_us"`
	// StagesUS reports per-stage compile wall time; absent on a cache
	// hit (no stage ran).
	StagesUS map[string]int64 `json:"stages_us,omitempty"`

	CSource    string `json:"c_source,omitempty"`
	CHeader    string `json:"c_header,omitempty"`
	CPrototype string `json:"c_prototype,omitempty"`

	CodeSize        int            `json:"code_size"`
	VectorizedLoops int            `json:"vectorized_loops"`
	Intrinsics      map[string]int `json:"intrinsics,omitempty"`
	Warnings        []string       `json:"warnings,omitempty"`
}

// RunRequest is the /run body: a compilation plus simulator arguments
// in cmd/asipsim's JSON format.
type RunRequest struct {
	CompileRequest
	Args json.RawMessage `json:"args"`
}

// appendJSON appends r as compact JSON plus a newline, with the field
// order, omitempty rules and string escaping of encoding/json.
func (r *CompileResponse) appendJSON(dst []byte) []byte {
	return append(r.appendFields(slices.Grow(dst, r.sizeHint())), "}\n"...)
}

// sizeHint estimates r's encoded size, to size the reply buffer once.
func (r *CompileResponse) sizeHint() int {
	return 512 + 32*(len(r.StagesUS)+len(r.Intrinsics)) + len(r.CSource) + len(r.CHeader) + len(r.CPrototype)
}

// appendFields appends the opening brace and r's fields.
func (r *CompileResponse) appendFields(dst []byte) []byte {
	dst = appendString(append(dst, `{"entry":`...), r.Entry)
	dst = appendString(appendKey(dst, "target"), r.Target)
	dst = appendString(appendKey(dst, "cache_key"), r.CacheKey)
	dst = strconv.AppendBool(appendKey(dst, "cache_hit"), r.CacheHit)
	dst = strconv.AppendInt(appendKey(dst, "elapsed_us"), r.ElapsedUS, 10)
	dst = appendCounts(dst, "stages_us", r.StagesUS)
	for _, f := range [...]struct{ name, s string }{
		{"c_source", r.CSource}, {"c_header", r.CHeader}, {"c_prototype", r.CPrototype},
	} {
		if f.s != "" {
			dst = appendString(appendKey(dst, f.name), f.s)
		}
	}
	dst = strconv.AppendInt(appendKey(dst, "code_size"), int64(r.CodeSize), 10)
	dst = strconv.AppendInt(appendKey(dst, "vectorized_loops"), int64(r.VectorizedLoops), 10)
	dst = appendCounts(dst, "intrinsics", r.Intrinsics)
	if len(r.Warnings) > 0 {
		dst = append(appendKey(dst, "warnings"), '[')
		for i, w := range r.Warnings {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, w)
		}
		dst = append(dst, ']')
	}
	return dst
}

// RunResponse is the /run reply. On the server, Results holds the run's
// values (float64, int64, complex128, *mat2c.Array), which appendJSON
// writes in EncodeValue's forms.
type RunResponse struct {
	CompileResponse
	Results      []interface{}    `json:"results"`
	Cycles       int64            `json:"cycles"`
	Instructions int64            `json:"instructions"`
	ClassCounts  map[string]int64 `json:"class_counts,omitempty"`
}

// appendJSON appends r as compact JSON plus a newline, like
// CompileResponse.appendJSON. It fails on a result JSON cannot carry:
// NaN or an infinity.
func (r *RunResponse) appendJSON(dst []byte) ([]byte, error) {
	n := r.sizeHint() + 32*len(r.ClassCounts)
	for _, v := range r.Results {
		if a, ok := v.(*mat2c.Array); ok {
			n += 24*len(a.F) + 48*len(a.C)
		}
		n += 48
	}
	dst = appendKey(r.appendFields(slices.Grow(dst, n)), "results")
	if r.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range r.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendValue(dst, v); err != nil {
				return nil, fmt.Errorf("result %d: %w", i+1, err)
			}
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(appendKey(dst, "cycles"), r.Cycles, 10)
	dst = strconv.AppendInt(appendKey(dst, "instructions"), r.Instructions, 10)
	dst = appendCounts(dst, "class_counts", r.ClassCounts)
	return append(dst, "}\n"...), nil
}

// appendKey appends a comma and the key name, which needs no escaping.
func appendKey(dst []byte, name string) []byte {
	return append(append(append(dst, ',', '"'), name...), '"', ':')
}

// appendCounts appends the field name holding m, keys sorted, or
// nothing when m is empty (omitempty).
func appendCounts[V int | int64](dst []byte, name string, m map[string]V) []byte {
	if len(m) == 0 {
		return dst
	}
	dst = append(appendKey(dst, name), '{')
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(appendString(dst, k), ':'), int64(m[k]), 10)
	}
	return append(dst, '}')
}

// appendString appends s as a JSON string escaped as encoding/json
// escapes it: HTML-safe, with invalid UTF-8 as U+FFFD and U+2028 and
// U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// TargetInfo is one /targets catalog entry.
type TargetInfo struct {
	Name         string `json:"name"`
	Description  string `json:"description,omitempty"`
	SIMDWidth    int    `json:"simd_width"`
	ComplexLanes int    `json:"complex_lanes"`
	Instructions int    `json:"instructions"`
}

// compileError marks failures caused by the request content (bad
// MATLAB, unknown target, bad arguments) as distinct from server
// faults; they map to 422.
type compileError struct{ err error }

func (e compileError) Error() string { return e.err.Error() }
func (e compileError) Unwrap() error { return e.err }

// vmFaultError marks simulator failures that are not attributable to
// the request arguments (cycle-budget exhaustion, runtime faults,
// engine bugs); they map to 500 and the vm_faults counter, so internal
// faults never masquerade as client errors.
type vmFaultError struct{ err error }

func (e vmFaultError) Error() string { return e.err.Error() }
func (e vmFaultError) Unwrap() error { return e.err }

// isCtxErr reports whether err stems from a cancelled or expired
// context (request deadline, client disconnect, server shutdown) —
// including a vm.CancelledError, which unwraps to the context error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeBody decodes r's JSON body into v, reading at most
// maxRequestBytes; strict rejects unknown fields. On failure it
// answers 413 (body over the limit) or 400 (anything else) and returns
// that status; on success it returns 0.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, strict bool) int {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	if strict {
		dec.DisallowUnknownFields()
	}
	err := dec.Decode(v)
	if err == nil {
		return 0
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", mbe.Limit)
		return http.StatusRequestEntityTooLarge
	}
	httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	return http.StatusBadRequest
}

// compile resolves one CompileRequest through the cache and shapes the
// response; it also returns the parsed parameter types. It runs on a
// worker slot and observes ctx between pipeline stages.
func (s *Server) compile(ctx context.Context, req *CompileRequest) (*mat2c.Result, *CompileResponse, []mat2c.Type, error) {
	params, err := mat2c.ParseTypes(req.Params)
	if err != nil {
		return nil, nil, nil, compileError{err}
	}
	opts := req.options()
	keys, err := mat2c.Keys(opts, mat2c.Input{Source: req.Source, Entry: req.Entry, Params: params})
	if err != nil {
		return nil, nil, nil, compileError{err}
	}
	key := keys[0]

	begin := time.Now()
	var res *mat2c.Result
	var hit bool
	if req.NoCache {
		// Bypass the lookup but keep the documented contract: the fresh
		// result is still stored for future hits.
		res, err = mat2c.CompileContext(ctx, req.Source, req.Entry, params, opts)
		if err == nil {
			s.cache.Put(key.String(), res)
		}
	} else {
		res, hit, err = mat2c.CompileKey(ctx, s.cache, key)
	}
	if err != nil {
		if isCtxErr(err) {
			return nil, nil, nil, err // cancellation, not a client error
		}
		return nil, nil, nil, compileError{err}
	}
	elapsed := time.Since(begin)
	s.metrics.ObserveCompile(res.StageTimings(), hit)

	resp := &CompileResponse{
		Entry:           res.Entry(),
		Target:          res.Processor().Name,
		CacheKey:        key.String(),
		CacheHit:        hit,
		ElapsedUS:       elapsed.Microseconds(),
		CSource:         res.CSource(),
		CHeader:         res.CHeader(),
		CodeSize:        res.CodeSize(),
		VectorizedLoops: res.VectorizedLoops(),
		Intrinsics:      res.SelectedIntrinsics(),
		Warnings:        res.Warnings(),
	}
	if !req.SkipC {
		resp.CPrototype = res.CPrototype()
	}
	if !hit {
		resp.StagesUS = map[string]int64{}
		for _, st := range res.StageTimings() {
			resp.StagesUS[st.Stage] = st.Duration.Microseconds()
		}
	}
	return res, resp, params, nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.serveCompute(w, r, "compile", func(ctx context.Context, req *RunRequest) ([]byte, error) {
		_, resp, _, err := s.compile(ctx, &req.CompileRequest)
		if err != nil {
			return nil, err
		}
		return resp.appendJSON(nil), nil
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.serveCompute(w, r, "run", func(ctx context.Context, req *RunRequest) ([]byte, error) {
		res, cresp, params, err := s.compile(ctx, &req.CompileRequest)
		if err != nil {
			return nil, err
		}
		args, err := decodeArgs(req.Args, params)
		if err != nil {
			return nil, compileError{err}
		}
		out, stats, err := res.RunWithStatsContext(ctx, args...)
		if err != nil {
			// Classify simulator failures: cancellations propagate as-is
			// (the caller maps them to the timeout/disconnect path);
			// runtime faults (*vm.FaultError: cycle-budget exhaustion,
			// out-of-bounds reached at run time, engine faults) are
			// server-side 500s; everything else — argument marshalling
			// against the declared parameters — is the client's 422.
			var fe *vm.FaultError
			switch {
			case isCtxErr(err):
				return nil, err
			case errors.As(err, &fe):
				return nil, vmFaultError{fmt.Errorf("run: %w", err)}
			default:
				return nil, compileError{fmt.Errorf("run: %w", err)}
			}
		}
		resp := &RunResponse{
			CompileResponse: *cresp,
			Results:         out,
			Cycles:          stats.Cycles,
			Instructions:    stats.Executed,
			ClassCounts:     stats.ClassCounts,
		}
		return resp.appendJSON(nil)
	})
}

// serveCompute is the shared compile/run request path: body decode,
// worker-slot acquisition, per-request deadline and cancellation
// propagation, panic-to-500, and request metrics. The worker receives a
// context derived from the request (bounded by Config.RequestTimeout);
// when the deadline fires or the client disconnects, the pipeline
// observes the cancellation (between compile stages, and within a
// bounded number of simulated instructions in the VM) and the worker
// slot is reclaimed promptly instead of burning until natural
// completion. fn returns the encoded reply, so encoding runs on the
// worker slot too.
func (s *Server) serveCompute(w http.ResponseWriter, r *http.Request, name string, fn func(context.Context, *RunRequest) ([]byte, error)) {
	finish := s.metrics.RequestStarted(name)
	status, timedOut, cancelled, panicked := http.StatusOK, false, false, false
	defer func() { finish(status, timedOut, cancelled, panicked) }()

	var req RunRequest
	if code := s.decodeBody(w, r, &req, false); code != 0 {
		status = code
		return
	}
	if req.Source == "" {
		status = http.StatusBadRequest
		httpError(w, status, "missing \"source\"")
		return
	}

	// The work context carries both cancellation sources: the
	// per-request deadline and the client's own context (disconnect, or
	// server shutdown via the http.Server's BaseContext).
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// clientGone distinguishes a deadline expiry (504/503, counted as a
	// timeout) from a client disconnect (counted as cancelled).
	clientGone := func() bool { return r.Context().Err() != nil }

	// Acquire a worker slot; waiting counts against the request
	// timeout so a saturated pool sheds load instead of queueing
	// unboundedly.
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		if clientGone() {
			status, cancelled = http.StatusServiceUnavailable, true
			httpError(w, status, "client went away")
		} else {
			status, timedOut = http.StatusServiceUnavailable, true
			s.metrics.QueueShed(name)
			w.Header().Set("Retry-After", "1")
			httpError(w, status, "server busy: no worker within %s", s.cfg.RequestTimeout)
		}
		return
	}

	type outcome struct {
		body     []byte
		err      error
		panicked bool
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() { <-s.slots }()
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{err: fmt.Errorf("internal error: %v", p), panicked: true}
			}
		}()
		body, err := fn(ctx, &req)
		done <- outcome{body: body, err: err}
	}()

	select {
	case o := <-done:
		switch {
		case o.panicked:
			status, panicked = http.StatusInternalServerError, true
			httpError(w, status, "%v", o.err)
		case o.err != nil && isCtxErr(o.err):
			// The worker observed our cancellation before this select
			// did; report it the same way as the ctx.Done branch below.
			if clientGone() {
				status, cancelled = http.StatusServiceUnavailable, true
				httpError(w, status, "client went away")
			} else {
				status, timedOut = http.StatusGatewayTimeout, true
				httpError(w, status, "request exceeded %s (work cancelled)", s.cfg.RequestTimeout)
			}
		case o.err != nil:
			var ce compileError
			var vf vmFaultError
			switch {
			case errors.As(o.err, &vf):
				status = http.StatusInternalServerError
				s.metrics.VMFault()
			case errors.As(o.err, &ce):
				status = http.StatusUnprocessableEntity
			default:
				status = http.StatusInternalServerError
			}
			httpError(w, status, "%v", o.err)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(o.body)))
			w.Write(o.body)
		}
	case <-ctx.Done():
		// The context's cancellation has already propagated into the
		// worker: the pipeline aborts at its next check and frees the
		// slot — the client stops waiting AND the work stops burning.
		if clientGone() {
			status, cancelled = http.StatusServiceUnavailable, true
			httpError(w, status, "client went away")
		} else {
			status, timedOut = http.StatusGatewayTimeout, true
			httpError(w, status, "request exceeded %s (work cancelled)", s.cfg.RequestTimeout)
		}
	}
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	finish := s.metrics.RequestStarted("targets")
	defer func() { finish(http.StatusOK, false, false, false) }()
	var infos []TargetInfo
	var loadErrors []string
	for _, name := range mat2c.Targets() {
		p, err := mat2c.LoadProcessor(name)
		if err != nil {
			// A built-in that fails to load is catalog corruption; surface
			// it to the client and the warning counter instead of silently
			// shrinking the catalog.
			loadErrors = append(loadErrors, fmt.Sprintf("%s: %v", name, err))
			s.metrics.TargetLoadError()
			continue
		}
		infos = append(infos, TargetInfo{
			Name:         p.Name,
			Description:  p.Description,
			SIMDWidth:    p.SIMDWidth,
			ComplexLanes: p.ComplexLanes,
			Instructions: len(p.Instructions),
		})
	}
	resp := map[string]interface{}{"targets": infos}
	if len(loadErrors) > 0 {
		resp["load_errors"] = loadErrors
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]interface{}{
		"status":   "ok",
		"inflight": s.metrics.InFlight(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.metrics.SnapshotWith(s.cache.Stats()))
}
