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
	"encoding/json"
	"fmt"
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
func StageNames() []string {
	return []string{"parse", "sema", "lower", "opt", "vectorize", "isel", "vm-lower", "cgen"}
}

// stageClock accumulates per-stage wall time. Repeated marks of the
// same stage (the post-vectorize optimizer cleanup) fold into one entry
// so consumers see exactly one StageTime per pipeline stage.
type stageClock struct {
	stages []StageTime
	mark   time.Time
}

func newStageClock() *stageClock {
	c := &stageClock{mark: time.Now()}
	for _, name := range StageNames() {
		c.stages = append(c.stages, StageTime{Stage: name})
	}
	return c
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

	cfg Config
}

// Restored rebuilds a Result from a decoded durable artifact (see
// internal/artifact): the VM program, C artifacts, and pipeline
// statistics are present, but Info and Func are nil — the IR and AST
// object graphs are not serialized, and the mat2c layer renders them
// on demand by compiling again. No stage ran, so Stages holds a zero
// entry per StageNames() element, as a back-memo hit does. Run and its
// variants work normally (they need only Program and the processor).
func Restored(entry string, prog *vm.Program, csrc, chdr string, vecLoops int, intr isel.Stats, cfg Config) *Result {
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
		Stages:          newStageClock().stages,
		cfg:             cfg,
	}
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
// answers every HasInstr query the stored compile made the same way: a
// DSE sweep's variants that differ only in cycle costs, or in
// instruction groups a kernel never asks about, share one Result,
// whose Func, Info and Program are read-only. A back-memo hit reports
// zero for every stage.
func CompileContext(ctx context.Context, src, entry string, params []sema.Type, cfg Config) (*Result, error) {
	if cfg.Processor == nil {
		return nil, fmt.Errorf("core: Config.Processor is required")
	}
	front := newFrontKey(src, entry, params, cfg)
	shape, err := newShapeKey(front, cfg)
	if err != nil {
		return nil, err
	}
	if s, ok := backMemo.Get(shape); ok {
		if r := s.lookup(cfg.Processor); r != nil {
			backHits.Add(1)
			if err := cancelled(ctx, "vm-lower"); err != nil {
				return nil, err
			}
			res := *r
			res.cfg = cfg
			res.Stages = newStageClock().stages
			return &res, nil
		}
	}
	backMisses.Add(1)
	rec := &recorder{Target: cfg.Processor, answers: map[string]bool{}}
	res, err := compile(ctx, src, entry, params, cfg, front, rec)
	if err != nil {
		return nil, err
	}
	stored := *res
	s, _ := backMemo.Add(shape, &backShape{})
	s.add(backCompile{answers: rec.answers, res: &stored}, cfg.Processor)
	return res, nil
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
	var ps strings.Builder
	for _, t := range params {
		fmt.Fprintf(&ps, "%d/%d/%d;", t.Class, t.Shape.Rows, t.Shape.Cols)
	}
	return frontKey{src: src, entry: entry, params: ps.String(), fusion: cfg.Fusion, optLevel: cfg.OptLevel}
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
// its input except the answers to HasInstr: the front half's input,
// the back-end switches, the lane counts when the vectorizer runs, the
// pattern-defined instructions when instruction selection runs, and,
// when C is emitted, the processor rendered without its cycle costs
// (cgen prints the target's name and its C intrinsic names). Nothing
// else reaches the back half: the vectorizer and instruction selection
// see the processor only as a pdesc.Target, and the optimizer and VM
// lowering not at all.
type shapeKey struct {
	front                        frontKey
	vectorize, intrinsics, emitC bool
	lanes, complexLanes          int
	patterns                     string
	proc                         string
}

func newShapeKey(front frontKey, cfg Config) (shapeKey, error) {
	p := cfg.Processor
	k := shapeKey{front: front, vectorize: cfg.Vectorize, intrinsics: cfg.Intrinsics, emitC: cfg.EmitC}
	if cfg.Vectorize {
		k.lanes, k.complexLanes = p.Lanes(false), p.Lanes(true)
	}
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
		data, err := json.Marshal(&q)
		if err != nil {
			return shapeKey{}, fmt.Errorf("core: keying target description: %w", err)
		}
		k.proc = string(data)
	}
	return k, nil
}

// recorder is the pdesc.Target the vectorizer and instruction selection
// read during one compile: it forwards to the processor and records the
// answer to every HasInstr query.
type recorder struct {
	pdesc.Target
	answers map[string]bool
}

func (r *recorder) HasInstr(name string) bool {
	has := r.Target.HasInstr(name)
	r.answers[name] = has
	return has
}

// backCompile is one stored compile and the answers to the HasInstr
// queries it made.
type backCompile struct {
	answers map[string]bool
	res     *Result
}

// matches reports whether p answers every query c recorded as c's
// processor did. Within one shape the compile is a deterministic
// function of those answers, and it chooses each next query from the
// answers so far, so a processor that matches would have asked exactly
// the recorded queries and got exactly the stored compile.
func (c *backCompile) matches(p *pdesc.Processor) bool {
	for name, has := range c.answers {
		if p.HasInstr(name) != has {
			return false
		}
	}
	return true
}

// backShape holds the compiles stored under one shape key, most
// recently used first. Two of them differ in the answer to a query both
// made (the first query where their runs part), so at most one matches
// any processor.
type backShape struct {
	mu       sync.Mutex
	compiles []backCompile
}

// lookup returns the stored compile p matches, or nil.
func (s *backShape) lookup(p *pdesc.Processor) *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.compiles {
		if s.compiles[i].matches(p) {
			c := s.compiles[i]
			copy(s.compiles[1:i+1], s.compiles[:i])
			s.compiles[0] = c
			return c.res
		}
	}
	return nil
}

// add stores c, the compile made for p, unless a concurrent miss
// stored one p matches first, and drops the least recently used
// compile beyond backShapeCap.
func (s *backShape) add(c backCompile, p *pdesc.Processor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.compiles {
		if s.compiles[i].matches(p) {
			return
		}
	}
	if len(s.compiles) < backShapeCap {
		s.compiles = append(s.compiles, backCompile{})
	}
	copy(s.compiles[1:], s.compiles)
	s.compiles[0] = c
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
// distinct answer set, which a sweep's instruction-group axis makes a
// handful per kernel and lane configuration.
const backShapeCap = 16

// backMemo holds finished compiles by shape; a hit is handed out as a
// shallow copy with its own processor and zero stage times.
var backMemo = lru.New[shapeKey, *backShape](backMemoSize)

// Memo counters: a back-memo hit consults neither the front memo nor
// the pipeline, so front lookups count back-memo misses only.
var frontHits, frontMisses, backHits, backMisses atomic.Uint64

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
// bounds Shapes.
type BackMemoInfo struct {
	MemoInfo
	Shapes int `json:"shapes"`
}

// MemosInfo snapshots both compile memos.
type MemosInfo struct {
	Front MemoInfo     `json:"front"`
	Back  BackMemoInfo `json:"back"`
}

// MemoStats reports the occupancy and hit/miss counters of the
// front-half and back-half memos.
func MemoStats() MemosInfo {
	shapes := backMemo.Values()
	stored := 0
	for _, s := range shapes {
		stored += s.stored()
	}
	return MemosInfo{
		Front: MemoInfo{Entries: frontMemo.Len(), Capacity: frontMemoSize,
			Hits: frontHits.Load(), Misses: frontMisses.Load()},
		Back: BackMemoInfo{Shapes: len(shapes), MemoInfo: MemoInfo{Entries: stored,
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
