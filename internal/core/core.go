// Package core is the compilation driver: it chains the front end
// (parse, analyze), the middle end (lower, optimize, vectorize, select
// custom instructions), and the two back ends (ANSI C emission and the
// cycle-model VM) according to a Config, and provides the two canonical
// pipeline presets the evaluation compares:
//
//   - Proposed: the paper's compiler — fused lowering, scalar
//     optimizations, SIMD vectorization, custom-instruction selection;
//   - Baseline: MATLAB-Coder-like code — one loop and a materialized
//     temporary per vectorized operation, scalar optimizations only, no
//     SIMD, no custom instructions.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mat2c/internal/cgen"
	"mat2c/internal/ir"
	"mat2c/internal/isel"
	"mat2c/internal/lower"
	"mat2c/internal/lru"
	"mat2c/internal/mlang"
	"mat2c/internal/opt"
	"mat2c/internal/pdesc"
	"mat2c/internal/sema"
	"mat2c/internal/vectorize"
	"mat2c/internal/vm"
)

// Config selects pipeline features.
type Config struct {
	// Processor is the target description (required).
	Processor *pdesc.Processor
	// OptLevel: 0 disables the scalar optimization pipeline, 1 enables it.
	OptLevel int
	// Vectorize enables the loop auto-vectorizer.
	Vectorize bool
	// Intrinsics enables custom-instruction selection.
	Intrinsics bool
	// Fusion enables elementwise view fusion in lowering. Disabled it
	// reproduces MATLAB Coder's loop-per-operation code shape.
	Fusion bool
	// EmitC additionally generates the ANSI C translation.
	EmitC bool
}

// Proposed returns the full paper pipeline for the processor.
func Proposed(p *pdesc.Processor) Config {
	return Config{Processor: p, OptLevel: 1, Vectorize: true, Intrinsics: true, Fusion: true}
}

// Baseline returns the MATLAB-Coder-like reference pipeline targeting
// the same processor (which its plain C output cannot exploit).
func Baseline(p *pdesc.Processor) Config {
	return Config{Processor: p, OptLevel: 1, Vectorize: false, Intrinsics: false, Fusion: false}
}

// StageTime records the wall-clock time one pipeline stage took during
// a Compile call. When the processor-independent front half came from
// the per-process memo (see CompileContext), parse and sema are zero,
// lower holds only the memo lookup and IR clone, and opt holds only the
// post-vectorize cleanup. When the whole compile came from the
// back-half memo, every stage is zero.
type StageTime struct {
	Stage    string
	Duration time.Duration
}

// StageNames lists the instrumented pipeline stages in execution order.
// Every Compile records a StageTime for each (zero when the stage was
// disabled by the Config, or skipped because the front half or the
// whole compile was memoized), so aggregators can pre-register them.
func StageNames() []string { return append([]string(nil), stageNames...) }

var stageNames = []string{"parse", "sema", "lower", "opt", "vectorize", "isel", "vm-lower", "cgen"}

// stageClock accumulates per-stage wall time. Repeated marks of the
// same stage (the post-vectorize optimizer cleanup) fold into one entry
// so consumers see exactly one StageTime per pipeline stage.
type stageClock struct {
	stages []StageTime
	mark   time.Time
}

func newStageClock() *stageClock {
	return &stageClock{stages: zeroStages(), mark: time.Now()}
}

// zeroStages returns a zero StageTime per StageNames() element, in one
// allocation.
func zeroStages() []StageTime {
	stages := make([]StageTime, len(stageNames))
	for i, name := range stageNames {
		stages[i].Stage = name
	}
	return stages
}

func (c *stageClock) record(stage string) {
	now := time.Now()
	d := now.Sub(c.mark)
	c.mark = now
	for i := range c.stages {
		if c.stages[i].Stage == stage {
			c.stages[i].Duration += d
			return
		}
	}
	c.stages = append(c.stages, StageTime{Stage: stage, Duration: d})
}

// Result is a compiled function with both back-end artifacts.
type Result struct {
	// Entry is the compiled entry function name.
	Entry string
	// Info is the semantic analysis result, shared read-only by every
	// compile that reused the same front half.
	Info *sema.Info
	// Func is the optimized IR.
	Func *ir.Func
	// Program is the VM lowering of Func.
	Program *vm.Program
	// CSource and CHeader hold the ANSI C translation when requested.
	CSource string
	CHeader string

	// VectorizedLoops counts loops the vectorizer widened.
	VectorizedLoops int
	// Intrinsics reports the custom instructions selected.
	Intrinsics isel.Stats

	// Stages records per-stage wall time for this compilation, one
	// entry per StageNames() element in pipeline order.
	Stages []StageTime

	// Queries are the questions the back half asked of the target, in
	// the order it first asked them, with their answers: with the
	// shape (AppendShape), what the compile read of its processor.
	// Every processor that gives these answers compiles to this
	// Result.
	Queries []Query

	cfg Config
}

// Restored rebuilds a Result from a decoded durable artifact (see
// internal/artifact): the VM program, C artifacts, and pipeline
// statistics are present, but Info and Func are nil — the IR and AST
// object graphs are not serialized, and the mat2c layer renders them
// on demand by compiling again. No stage ran, so Stages holds a zero
// entry per StageNames() element, as a back-memo hit does. queries are
// the questions the compile asked and cfg's processor's answers to
// them. Run and its variants work normally (they need only Program and
// the processor).
func Restored(entry string, prog *vm.Program, csrc, chdr string, vecLoops int, intr isel.Stats, queries []Query, cfg Config) *Result {
	if intr.Selected == nil {
		intr.Selected = map[string]int{}
	}
	return &Result{
		Entry:           entry,
		Program:         prog,
		CSource:         csrc,
		CHeader:         chdr,
		VectorizedLoops: vecLoops,
		Intrinsics:      intr,
		Stages:          zeroStages(),
		Queries:         queries,
		cfg:             cfg,
	}
}

// On returns a shallow copy of r bound to cfg, with a zero entry per
// stage: a compile served again rather than run. r's Func, Info,
// Program and Intrinsics stay shared and read-only; every processor
// that gives the answers to r's Queries shares them.
func (r *Result) On(cfg Config) *Result {
	res := *r
	res.cfg = cfg
	res.Stages = zeroStages()
	return &res
}

// Compile runs the configured pipeline over MATLAB source. entry names
// the function to compile (it must be defined in src) and params give
// the entry parameter types.
func Compile(src, entry string, params []sema.Type, cfg Config) (*Result, error) {
	return CompileContext(context.Background(), src, entry, params, cfg)
}

// CompileContext is Compile under a cancellable context: the pipeline
// checks ctx between stages and abandons the compilation (returning an
// error that unwraps to ctx.Err()) once it fires. Individual stages are
// short, so cancellation latency is bounded by the slowest single
// stage.
//
// Two per-process memos let repeated inputs skip work; only successful
// compiles are memoized. The front half — parse, sema, lower and the
// scalar optimizer — does not read Config.Processor, so it runs once
// per source, entry, parameter types, Fusion and OptLevel: later
// compiles continue from a clone of the memoized optimized IR at the
// vectorizer. The back half reads the processor only through
// pdesc.Target (and, with C output, through cgen), so a whole compile
// is reused on any processor with the same shape (see shapeKey) that
// answers every Lanes and HasInstr query the stored compile made the
// same way: a DSE sweep's variants that differ only in cycle costs, or
// in lane counts and instruction groups a kernel never asks about,
// share one Result, whose Func, Info and Program are read-only. A
// back-memo hit reports zero for every stage.
//
// A back-memo miss first looks for a compile of the same shape in
// progress whose answers so far the processor agrees with. If there is
// one, the caller waits for it to land (or for ctx to fire) and looks
// up again; otherwise it compiles, and other callers that agree with
// its answers wait for it rather than compiling the same program.
func CompileContext(ctx context.Context, src, entry string, params []sema.Type, cfg Config) (*Result, error) {
	if cfg.Processor == nil {
		return nil, fmt.Errorf("core: Config.Processor is required")
	}
	front := newFrontKey(src, entry, params, cfg)
	shape := newShapeKey(front, cfg)
	s, ok := backMemo.Get(shape)
	if !ok {
		s, _ = backMemo.Add(shape, &backShape{})
	}
	for {
		r, fl, lead := s.claim(cfg.Processor)
		if r != nil {
			backHits.Add(1)
			if err := cancelled(ctx, "vm-lower"); err != nil {
				return nil, err
			}
			return r.On(cfg), nil
		}
		if !lead {
			backWaits.Add(1)
			if waitHook != nil {
				waitHook()
			}
			select {
			case <-fl.done:
				continue
			case <-ctx.Done():
				backMisses.Add(1)
				return nil, fmt.Errorf("compile cancelled waiting for a concurrent compile: %w", ctx.Err())
			}
		}
		backMisses.Add(1)
		return s.lead(fl, func() (*Result, error) {
			return compile(ctx, src, entry, params, cfg, front, fl.rec)
		})
	}
}

// compile runs the pipeline, continuing from the memoized front half
// when there is one. The vectorizer and instruction selection read the
// target through t.
func compile(ctx context.Context, src, entry string, params []sema.Type, cfg Config, key frontKey, t pdesc.Target) (*Result, error) {
	clock := newStageClock()
	var info *sema.Info
	var f *ir.Func
	if fe, ok := frontMemo.Get(key); ok {
		frontHits.Add(1)
		entry, info, f = fe.entry, fe.info, ir.CloneFunc(fe.fn)
		clock.record("lower")
		if err := cancelled(ctx, "lower"); err != nil {
			return nil, err
		}
	} else {
		frontMisses.Add(1)
		var err error
		entry, info, f, err = frontHalf(ctx, clock, src, entry, params, cfg)
		if err != nil {
			return nil, err
		}
		frontMemo.Add(key, &frontEnd{entry: entry, info: info, fn: ir.CloneFunc(f)})
		clock.record("opt") // the memo's copy is charged to the stage it keeps
	}

	res := &Result{Entry: entry, Info: info, Func: f, cfg: cfg,
		Intrinsics: isel.Stats{Selected: map[string]int{}}}
	if cfg.Vectorize {
		res.VectorizedLoops = vectorize.Apply(f, t)
	}
	clock.record("vectorize")
	if selectHook != nil {
		if err := selectHook(); err != nil {
			return nil, err
		}
	}
	if cfg.Intrinsics {
		res.Intrinsics = isel.Apply(f, t)
	}
	clock.record("isel")
	if err := cancelled(ctx, "isel"); err != nil {
		return nil, err
	}
	// The vectorizer's forward substitution re-exposes foldable index
	// arithmetic; clean it up so neither backend executes it.
	if cfg.OptLevel > 0 && (cfg.Vectorize || cfg.Intrinsics) {
		opt.Optimize(f, cfg.OptLevel)
		clock.record("opt")
	}

	prog, err := vm.Lower(f)
	if err != nil {
		return nil, fmt.Errorf("vm lower: %w", err)
	}
	res.Program = prog
	clock.record("vm-lower")
	if err := cancelled(ctx, "vm-lower"); err != nil {
		return nil, err
	}

	if cfg.EmitC {
		csrc, err := cgen.Function(f, cfg.Processor)
		if err != nil {
			return nil, fmt.Errorf("cgen: %w", err)
		}
		res.CSource = csrc
		res.CHeader = cgen.Header(cfg.Processor)
		clock.record("cgen")
	}
	res.Stages = clock.stages
	return res, nil
}

// frontKey identifies one run of the processor-independent front half:
// everything parse, sema, lower and the scalar optimizer read, and
// nothing from Config.Processor. entry is the name as passed, before
// defaulting to the first function.
type frontKey struct {
	src, entry, params string
	fusion             bool
	optLevel           int
}

func newFrontKey(src, entry string, params []sema.Type, cfg Config) frontKey {
	var ps []byte
	for _, t := range params {
		ps = strconv.AppendInt(ps, int64(t.Class), 10)
		ps = append(ps, '/')
		ps = strconv.AppendInt(ps, int64(t.Shape.Rows), 10)
		ps = append(ps, '/')
		ps = strconv.AppendInt(ps, int64(t.Shape.Cols), 10)
		ps = append(ps, ';')
	}
	return frontKey{src: src, entry: entry, params: string(ps), fusion: cfg.Fusion, optLevel: cfg.OptLevel}
}

// frontEnd is a memoized front half: the resolved entry name, the
// semantic analysis (read-only once Analyze returns) and the optimized
// IR. fn is never handed out; every compile continues on its own
// ir.CloneFunc copy, so the back half's in-place passes leave it intact.
type frontEnd struct {
	entry string
	info  *sema.Info
	fn    *ir.Func
}

// frontMemoSize bounds the front-half memo. A DSE sweep needs one entry
// per kernel of its suite (six by default); the rest leaves room for
// the bench harness's pipeline shapes and a daemon's one-off sources.
const frontMemoSize = 64

// frontMemo lets every compile of the same source, entry, parameter
// types, fusion setting and optimization level — typically one kernel
// across the processor variants of a sweep — share one front half.
// Errors are never memoized.
var frontMemo = lru.New[frontKey, *frontEnd](frontMemoSize)

// shapeKey files a compile under everything the back half reads of
// its input except its answers to Lanes and HasInstr: the front half's
// input, the back-end switches, the pattern-defined instructions when
// instruction selection runs, and, when C is emitted, the processor
// rendered without its cycle costs (cgen prints the target's name and
// its C intrinsic names). Nothing else reaches the back half: the
// vectorizer and instruction selection see the processor only as a
// pdesc.Target, and the optimizer and VM lowering not at all.
type shapeKey struct {
	front                        frontKey
	vectorize, intrinsics, emitC bool
	patterns                     string
	proc                         string
}

func newShapeKey(front frontKey, cfg Config) shapeKey {
	p := cfg.Processor
	k := shapeKey{front: front, vectorize: cfg.Vectorize, intrinsics: cfg.Intrinsics, emitC: cfg.EmitC}
	if cfg.Intrinsics {
		var b strings.Builder
		for _, in := range p.PatternInstrs() {
			b.WriteString(in.Name)
			b.WriteByte(0)
			b.WriteString(in.Semantics)
			b.WriteByte(0)
		}
		k.patterns = b.String()
	}
	if cfg.EmitC {
		q := *p
		q.Costs = nil
		k.proc = string(q.AppendJSON(nil))
	}
	return k
}

// AppendShape appends the durable rendering of what the shape key of
// compiling under cfg holds besides the source, entry and parameter
// types: the optimization level, the pipeline switches, the
// pattern-defined instructions when instruction selection runs, and
// the processor without its cycle costs when C is emitted (see
// shapeKey). Compiles of one input whose renderings are equal have
// equal shape keys, so a durable store can file a compile under its
// input, this rendering and its Queries.
func AppendShape(dst []byte, cfg Config) []byte {
	k := newShapeKey(frontKey{fusion: cfg.Fusion, optLevel: cfg.OptLevel}, cfg)
	dst = strconv.AppendInt(dst, int64(k.front.optLevel), 10)
	for _, on := range []bool{k.front.fusion, k.vectorize, k.intrinsics, k.emitC} {
		dst = strconv.AppendBool(append(dst, ' '), on)
	}
	dst = binary.LittleEndian.AppendUint64(append(dst, ' '), uint64(len(k.patterns)))
	dst = append(dst, k.patterns...)
	return append(dst, k.proc...)
}

// Query is one question a back-half compile asked of its target and
// the answer it got. Question renders the question durably: "L0" and
// "L1" ask Lanes for real and complex elements, and "I" followed by a
// name asks HasInstr of that name. Answer is Lanes' count, or 1 or 0
// for HasInstr.
type Query struct {
	Question string
	Answer   int
}

// Asked reports whether question is one a compile asks (see Query).
func Asked(question string) bool {
	return question == "L0" || question == "L1" || len(question) > 1 && question[0] == 'I'
}

// Ask returns t's answer to question, one a compile asks (Asked).
func Ask(t pdesc.Target, question string) int {
	switch {
	case question[0] == 'L':
		return t.Lanes(question == "L1")
	case t.HasInstr(question[1:]):
		return 1
	}
	return 0
}

// answers are the queries one back-half compile made of its target, in
// the order it first made them, with the answers it got.
type answers []Query

// heldBy reports whether p gives every recorded answer.
func (a answers) heldBy(p pdesc.Target) bool {
	for _, q := range a {
		if Ask(p, q.Question) != q.Answer {
			return false
		}
	}
	return true
}

// recorder is the pdesc.Target the vectorizer and instruction selection
// read during one compile: it forwards to the processor and records
// each question the first time it is asked, with its answer; a repeat
// adds nothing. Callers deciding whether to wait for the compile read
// the answers while it runs, under mu.
type recorder struct {
	pdesc.Target
	mu      sync.Mutex
	answers answers
}

func (r *recorder) Lanes(isComplex bool) int {
	n := r.Target.Lanes(isComplex)
	if isComplex {
		r.note("L1", n)
	} else {
		r.note("L0", n)
	}
	return n
}

func (r *recorder) HasInstr(name string) bool {
	has := r.Target.HasInstr(name)
	n := 0
	if has {
		n = 1
	}
	r.note("I"+name, n)
	return has
}

func (r *recorder) note(question string, answer int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range r.answers {
		if q.Question == question {
			return
		}
	}
	r.answers = append(r.answers, Query{Question: question, Answer: answer})
}

// agrees reports whether p gives every answer recorded so far.
func (r *recorder) agrees(p pdesc.Target) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.answers.heldBy(p)
}

// backCompile is one stored compile and the answers to the queries it
// made.
type backCompile struct {
	answers answers
	res     *Result
}

// backFlight is one back-half compile in progress: rec holds the
// answers it has got so far, and done closes when it lands, stored or
// failed.
type backFlight struct {
	rec  *recorder
	done chan struct{}
}

// backShape holds the compiles stored under one shape key, most
// recently used first, and the compiles in progress under it.
//
// Within one shape the compile is a deterministic function of its
// answers, and it chooses each next query from the answers so far, so
// a processor that gives every recorded answer would have asked
// exactly the recorded queries and got exactly the stored compile.
// Two compiles of one shape differ in the answer to a query both made
// (the first query where their runs part), so at most one matches any
// processor. A caller that agrees with an in-progress compile's
// answers so far may still part from it at a later query, so a waiter
// matches the landed compile again like any other lookup.
type backShape struct {
	mu       sync.Mutex
	compiles []backCompile
	flights  []*backFlight
}

// claim returns the stored compile p matches. Failing that, it returns
// an in-progress compile whose answers so far p agrees with, to wait
// for, or registers and returns a new flight for the caller to compile
// (lead is true).
func (s *backShape) claim(p *pdesc.Processor) (r *Result, fl *backFlight, lead bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.compiles {
		if s.compiles[i].answers.heldBy(p) {
			c := s.compiles[i]
			copy(s.compiles[1:i+1], s.compiles[:i])
			s.compiles[0] = c
			return c.res, nil, false
		}
	}
	for _, fl := range s.flights {
		if fl.rec.agrees(p) {
			return nil, fl, false
		}
	}
	fl = &backFlight{rec: &recorder{Target: p}, done: make(chan struct{})}
	s.flights = append(s.flights, fl)
	return nil, fl, true
}

// lead runs fl's compile and lands fl, also when the compile panics,
// so that no waiter waits for a compile that never lands.
func (s *backShape) lead(fl *backFlight, compile func() (*Result, error)) (res *Result, err error) {
	err = errors.New("core: compile panicked")
	defer func() { s.land(fl, res, err) }()
	return compile()
}

// land ends fl: on success its compile is stored, dropping the least
// recently used one beyond backShapeCap; errors are never stored.
// Either way fl's waiters wake to look up again.
func (s *backShape) land(fl *backFlight, res *Result, err error) {
	s.mu.Lock()
	if err == nil {
		fl.rec.mu.Lock()
		res.Queries = slices.Clip(fl.rec.answers)
		fl.rec.mu.Unlock()
		stored := *res
		if len(s.compiles) < backShapeCap {
			s.compiles = append(s.compiles, backCompile{})
		}
		copy(s.compiles[1:], s.compiles)
		s.compiles[0] = backCompile{answers: res.Queries, res: &stored}
	}
	for i, f := range s.flights {
		if f == fl {
			s.flights = append(s.flights[:i], s.flights[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	close(fl.done)
}

func (s *backShape) stored() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.compiles)
}

// backMemoSize bounds the back-half memo's shape keys. A DSE sweep
// needs one per kernel and lane configuration (and pattern set) while a
// worker runs through the variants that share it. A larger memo mostly
// holds a daemon's one-off compiles, which never hit: 512 entries
// raised mat2cd's peak RSS by 7–14% under the end-to-end benchmark's
// request loop.
const backMemoSize = 64

// backShapeCap bounds the compiles stored under one shape key: one per
// distinct answer set. A sweep's lane and instruction-group axes make a
// few dozen per kernel at most (see docs/PERF.md for the counts).
const backShapeCap = 16

// backMemo holds finished compiles by shape; a hit is handed out as a
// shallow copy with its own processor and zero stage times.
var backMemo = lru.New[shapeKey, *backShape](backMemoSize)

// Memo counters: a back-memo hit consults neither the front memo nor
// the pipeline, so front lookups count back-memo misses only. A back
// lookup that waits for a concurrent compile counts one wait and then,
// once, the hit or miss it ends in.
var frontHits, frontMisses, backHits, backMisses, backWaits atomic.Uint64

// Test hooks, nil outside tests: selectHook runs in every compile
// between the vectorizer and instruction selection, and an error it
// returns fails the compile; waitHook runs when a back-memo miss starts
// waiting for a concurrent compile.
var (
	selectHook func() error
	waitHook   func()
)

// SetBackHooks installs the compile driver's test hooks: sel runs in
// every compile between the vectorizer and instruction selection (an
// error it returns fails the compile), and wait runs when a back-memo
// miss starts waiting for a concurrent compile. It returns a function
// that removes both. Tests of core and of the packages above it call
// it; a program never does.
func SetBackHooks(sel func() error, wait func()) (restore func()) {
	selectHook, waitHook = sel, wait
	return func() { selectHook, waitHook = nil, nil }
}

// MemoInfo is a point-in-time snapshot of one compile memo. Hits and
// Misses count lookups since the process started (or ResetMemos).
type MemoInfo struct {
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
}

// BackMemoInfo snapshots the back-half memo: Entries counts stored
// compiles and Shapes the shape keys they are filed under; Capacity
// bounds Shapes. Waits counts the times a lookup waited for a
// concurrent compile of its shape (a lookup may wait again when that
// compile parts from its answers) before ending in a hit or a miss.
type BackMemoInfo struct {
	MemoInfo
	Shapes int    `json:"shapes"`
	Waits  uint64 `json:"waits"`
}

// MemosInfo snapshots both compile memos.
type MemosInfo struct {
	Front MemoInfo     `json:"front"`
	Back  BackMemoInfo `json:"back"`
}

// MemoStats reports the occupancy and hit/miss counters of the
// front-half and back-half memos.
func MemoStats() MemosInfo {
	shapes, stored := 0, 0
	for _, s := range backMemo.Values() {
		if n := s.stored(); n > 0 {
			shapes++
			stored += n
		}
	}
	return MemosInfo{
		Front: MemoInfo{Entries: frontMemo.Len(), Capacity: frontMemoSize,
			Hits: frontHits.Load(), Misses: frontMisses.Load()},
		Back: BackMemoInfo{Shapes: shapes, Waits: backWaits.Load(), MemoInfo: MemoInfo{Entries: stored,
			Capacity: backMemoSize, Hits: backHits.Load(), Misses: backMisses.Load()}},
	}
}

// ResetMemos empties both compile memos and their counters (tests and
// benchmarks measuring cold paths).
func ResetMemos() {
	frontMemo.Clear()
	backMemo.Clear()
	frontHits.Store(0)
	frontMisses.Store(0)
	backHits.Store(0)
	backMisses.Store(0)
	backWaits.Store(0)
}

// frontHalf runs the processor-independent stages — parse, sema, lower
// and the scalar optimizer — and returns the resolved entry name, the
// semantic analysis and the optimized IR.
func frontHalf(ctx context.Context, clock *stageClock, src, entry string, params []sema.Type, cfg Config) (string, *sema.Info, *ir.Func, error) {
	file, err := mlang.Parse(src)
	if err != nil {
		return "", nil, nil, fmt.Errorf("parse: %w", err)
	}
	clock.record("parse")
	if err := cancelled(ctx, "parse"); err != nil {
		return "", nil, nil, err
	}
	if entry == "" && len(file.Funcs) > 0 {
		entry = file.Funcs[0].Name
	}
	info, err := sema.Analyze(file, entry, params)
	if err != nil {
		return "", nil, nil, fmt.Errorf("analyze: %w", err)
	}
	clock.record("sema")
	if err := cancelled(ctx, "sema"); err != nil {
		return "", nil, nil, err
	}

	var lopts []lower.Option
	if !cfg.Fusion {
		lopts = append(lopts, lower.NoFusion())
	}
	f, err := lower.Lower(info, lopts...)
	if err != nil {
		return "", nil, nil, fmt.Errorf("lower: %w", err)
	}
	clock.record("lower")
	if err := cancelled(ctx, "lower"); err != nil {
		return "", nil, nil, err
	}

	opt.Optimize(f, cfg.OptLevel)
	clock.record("opt")
	if err := cancelled(ctx, "opt"); err != nil {
		return "", nil, nil, err
	}
	return entry, info, f, nil
}

// cancelled returns a wrapped ctx.Err() once ctx has fired.
func cancelled(ctx context.Context, after string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("compile cancelled after %s: %w", after, err)
	}
	return nil
}

// Run executes the compiled program on a fresh cycle-model machine and
// returns the results and the charged cycle count.
func (r *Result) Run(args ...interface{}) ([]interface{}, int64, error) {
	return r.RunContext(context.Background(), args...)
}

// RunContext executes like Run under a cancellable context (see
// vm.Machine.RunContext for the cancellation contract).
func (r *Result) RunContext(ctx context.Context, args ...interface{}) ([]interface{}, int64, error) {
	m := vm.NewMachine(r.cfg.Processor)
	out, err := m.RunContext(ctx, r.Program, args...)
	if err != nil {
		return nil, 0, err
	}
	return out, m.Cycles, nil
}

// RunOn executes the compiled program on the supplied machine (for
// callers that want ClassCounts or custom cycle limits).
func (r *Result) RunOn(m *vm.Machine, args ...interface{}) ([]interface{}, error) {
	return m.Run(r.Program, args...)
}

// RunOnContext executes the compiled program on the supplied machine
// under a cancellable context.
func (r *Result) RunOnContext(ctx context.Context, m *vm.Machine, args ...interface{}) ([]interface{}, error) {
	return m.RunContext(ctx, r.Program, args...)
}

// CodeSize returns the static VM instruction count.
func (r *Result) CodeSize() int { return r.Program.Len() }

// Processor returns the target the result was compiled for.
func (r *Result) Processor() *pdesc.Processor { return r.cfg.Processor }
