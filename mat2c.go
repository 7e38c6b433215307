// Package mat2c is a retargetable MATLAB-to-C compiler targeting
// Application Specific Instruction set Processors (ASIPs), reproducing
// Latifis et al., "Matlab to C Compilation Targeting Application
// Specific Instruction Set Processors", DATE 2016.
//
// The compiler takes functions written in a MATLAB subset, infers static
// classes and shapes, lowers matrix code to fused loop nests, optimizes,
// auto-vectorizes to the target's SIMD width, and maps expression
// patterns onto the target's custom instructions (fused MAC, complex
// arithmetic, sum-of-absolute-differences). It produces two artifacts
// from the same IR:
//
//   - ANSI C with the target's intrinsic functions (the paper's
//     deliverable: code any C compiler accepts, via portable fallbacks);
//   - a program for the built-in cycle-model ASIP simulator, which this
//     reproduction uses in place of the authors' silicon.
//
// Targets are described by parameterized pdesc files (SIMD width,
// custom-instruction list, cycle costs); retargeting the compiler is a
// matter of writing a new JSON description.
//
// # Quick start
//
//	src := `function y = scale(x, a)
//	y = a .* x;
//	end`
//	res, err := mat2c.Compile(src, "scale",
//		[]mat2c.Type{mat2c.Vector(mat2c.Real), mat2c.Scalar(mat2c.Real)},
//		mat2c.Options{Target: "dspasip"})
//	if err != nil { ... }
//	fmt.Println(res.CSource())                  // generated ANSI C
//	out, cycles, err := res.Run(mat2c.NewVector(1, 2, 3), 2.0)
package mat2c

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"mat2c/internal/artifact"
	"mat2c/internal/cgen"
	"mat2c/internal/core"
	"mat2c/internal/ir"
	"mat2c/internal/mlang"
	"mat2c/internal/pdesc"
	"mat2c/internal/sema"
	"mat2c/internal/vm"
)

// Class is the element class of a MATLAB value.
type Class = sema.Class

// Element classes for parameter declarations.
const (
	Bool    = sema.Bool
	Int     = sema.Int
	Real    = sema.Real
	Complex = sema.Complex
)

// Type declares the class and shape of an entry-function parameter.
type Type = sema.Type

// Scalar returns a 1x1 parameter type.
func Scalar(c Class) Type { return sema.ScalarType(c) }

// Vector returns a row-vector parameter type with a run-time length.
func Vector(c Class) Type {
	return Type{Class: c, Shape: sema.Shape{Rows: 1, Cols: sema.DimUnknown}}
}

// ColumnVector returns a column-vector parameter type with a run-time
// length.
func ColumnVector(c Class) Type {
	return Type{Class: c, Shape: sema.Shape{Rows: sema.DimUnknown, Cols: 1}}
}

// Matrix returns a matrix parameter type with run-time extents.
func Matrix(c Class) Type {
	return Type{Class: c, Shape: sema.Shape{Rows: sema.DimUnknown, Cols: sema.DimUnknown}}
}

// SizedVector returns a row vector with a compile-time length, enabling
// static shape checking and loop-bound folding.
func SizedVector(c Class, n int) Type {
	return Type{Class: c, Shape: sema.RowVec(n)}
}

// SizedMatrix returns a matrix with compile-time extents.
func SizedMatrix(c Class, rows, cols int) Type {
	return Type{Class: c, Shape: sema.Shape{Rows: rows, Cols: cols}}
}

// Array is a runtime dense column-major array passed to and returned
// from compiled functions.
type Array = ir.Array

// NewVector builds a 1xN real array from values.
func NewVector(vals ...float64) *Array {
	a := ir.NewFloatArray(1, len(vals))
	copy(a.F, vals)
	return a
}

// NewComplexVector builds a 1xN complex array from values.
func NewComplexVector(vals ...complex128) *Array {
	a := ir.NewComplexArray(1, len(vals))
	copy(a.C, vals)
	return a
}

// NewMatrix builds a rows×cols real array from column-major data (pass
// nil data for zeros). It fails, allocating nothing, on a negative
// extent, an element count beyond int, or data of another length.
func NewMatrix(rows, cols int, data []float64) (*Array, error) {
	if err := checkShape("NewMatrix", rows, cols, data != nil, len(data)); err != nil {
		return nil, err
	}
	a := ir.NewFloatArray(rows, cols)
	copy(a.F, data)
	return a, nil
}

// NewComplexMatrix builds a rows×cols complex array from column-major
// data (nil for zeros), failing as NewMatrix does.
func NewComplexMatrix(rows, cols int, data []complex128) (*Array, error) {
	if err := checkShape("NewComplexMatrix", rows, cols, data != nil, len(data)); err != nil {
		return nil, err
	}
	a := ir.NewComplexArray(rows, cols)
	copy(a.C, data)
	return a, nil
}

// checkShape vets a rows×cols matrix built by fn from n values, or from
// none when hasData is false.
func checkShape(fn string, rows, cols int, hasData bool, n int) error {
	if rows < 0 || cols < 0 || cols > 0 && rows > math.MaxInt/cols {
		return fmt.Errorf("mat2c: %s: bad extent %dx%d", fn, rows, cols)
	}
	if hasData && n != rows*cols {
		return fmt.Errorf("mat2c: %s: %d values for %dx%d", fn, n, rows, cols)
	}
	return nil
}

// Processor is a target description.
type Processor = pdesc.Processor

// LoadProcessor resolves a built-in target name ("scalar", "dspasip",
// "wide2", "wide8", "nocomplex", "nosimd") or loads a JSON description
// from a file path.
func LoadProcessor(nameOrPath string) (*Processor, error) {
	return pdesc.Resolve(nameOrPath)
}

// Targets lists the built-in target names.
func Targets() []string { return pdesc.BuiltinNames() }

// Options configures a compilation.
type Options struct {
	// Target is a built-in processor name or a JSON description path.
	// Default: "dspasip".
	Target string
	// Processor overrides Target with an explicit description.
	Processor *Processor

	// Baseline selects the MATLAB-Coder-style reference pipeline
	// (no fusion, no SIMD, no custom instructions) instead of the full
	// compiler. Used by the evaluation harness; the default is the full
	// pipeline.
	Baseline bool

	// NoVectorize disables the auto-vectorizer.
	NoVectorize bool
	// NoIntrinsics disables custom-instruction selection.
	NoIntrinsics bool
	// NoFusion disables elementwise view fusion in lowering (Baseline
	// implies it; NoFusion alone keeps the rest of the full pipeline,
	// which makes every ablation combination expressible).
	NoFusion bool
	// OptLevel: a negative value disables the scalar optimization
	// pipeline; any other value, the zero value included, enables it.
	// There is one optimization level, so every positive level compiles
	// as the default does (and shares its cache key).
	OptLevel int

	// SkipC skips ANSI C generation (IR and VM program only).
	SkipC bool
}

func (o Options) config() (core.Config, error) {
	p := o.Processor
	if p == nil {
		name := o.Target
		if name == "" {
			name = "dspasip"
		}
		var err error
		p, err = pdesc.Resolve(name)
		if err != nil {
			return core.Config{}, err
		}
	}
	var cfg core.Config
	if o.Baseline {
		cfg = core.Baseline(p)
	} else {
		cfg = core.Proposed(p)
	}
	if o.NoVectorize {
		cfg.Vectorize = false
	}
	if o.NoIntrinsics {
		cfg.Intrinsics = false
	}
	if o.NoFusion {
		cfg.Fusion = false
	}
	if o.OptLevel < 0 {
		cfg.OptLevel = 0
	}
	cfg.EmitC = !o.SkipC
	return cfg, nil
}

// Result is a compiled MATLAB function.
type Result struct {
	res  *core.Result
	proc *pdesc.Processor

	// rec is non-nil when the result was restored from a durable
	// store tier rather than compiled in this process: the C prototype
	// and diagnostics are served from it because the IR/AST object
	// graphs are not serialized. key holds the inputs and options the
	// result was compiled from (for a restored result, the lookup that
	// restored it): a store tier files the result under them, and a
	// restored result's IRText and AST compile them again to render
	// listings.
	rec *artifact.Record
	key Key
}

// Compile compiles the MATLAB source. entry names the function to
// compile (empty selects the first function in the file); params declare
// its parameter types.
func Compile(source, entry string, params []Type, opts Options) (*Result, error) {
	return CompileContext(context.Background(), source, entry, params, opts)
}

// CompileContext is Compile under a cancellable context: the pipeline
// checks ctx between compilation stages and abandons the work (with an
// error that unwraps to ctx.Err()) once it fires.
func CompileContext(ctx context.Context, source, entry string, params []Type, opts Options) (*Result, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	res, err := core.CompileContext(ctx, source, entry, params, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{res: res, proc: cfg.Processor, key: Key{in: Input{source, entry, params}, opts: opts}}, nil
}

// Entry returns the compiled entry-function name (resolved to the
// first function in the file when Compile was called with entry "").
func (r *Result) Entry() string { return r.res.Entry }

// CSource returns the generated ANSI C (empty if SkipC was set).
func (r *Result) CSource() string { return r.res.CSource }

// CHeader returns the generated asip_intrinsics.h contents.
func (r *Result) CHeader() string { return r.res.CHeader }

// IRText returns the optimized intermediate representation. A result
// restored from a store tier renders it by compiling its inputs again
// (see compiled).
func (r *Result) IRText() string {
	if res := r.compiled(); res != nil {
		return ir.Print(res.Func)
	}
	return ""
}

// compiled returns the in-process compilation behind r, which holds
// the IR and AST: r's own, or, for a result restored from a store
// tier, a compile of the inputs of the key that restored it. That
// compile goes through no Cache, so no CacheStats counter moves, and
// the front and back memos usually serve it without running a stage.
// It returns nil if that compile fails, which inputs that compiled
// once do not.
func (r *Result) compiled() *core.Result {
	if r.rec == nil {
		return r.res
	}
	k := r.key
	res, err := Compile(k.in.Source, k.in.Entry, k.in.Params, k.opts)
	if err != nil {
		return nil
	}
	return res.res
}

// Disasm returns the VM program in assembly-like text.
func (r *Result) Disasm() string { return r.res.Program.Disasm() }

// CodeSize returns the static VM instruction count.
func (r *Result) CodeSize() int { return r.res.CodeSize() }

// Program returns the compiled VM program. It is shared with the cache
// and must be treated as read-only.
func (r *Result) Program() *vm.Program { return r.res.Program }

// VectorizedLoops reports how many loops the vectorizer widened.
func (r *Result) VectorizedLoops() int { return r.res.VectorizedLoops }

// SelectedIntrinsics reports custom-instruction selections by name.
func (r *Result) SelectedIntrinsics() map[string]int {
	out := map[string]int{}
	for k, v := range r.res.Intrinsics.Selected {
		if v > 0 {
			out[k] = v
		}
	}
	return out
}

// Processor returns the compilation target.
func (r *Result) Processor() *Processor { return r.proc }

// StageTime records how long one pipeline stage took, in pipeline
// order: parse, sema, lower, opt, vectorize, isel, vm-lower, cgen.
type StageTime = core.StageTime

// StageNames lists the instrumented pipeline stages in execution order
// (useful for pre-registering metric series).
func StageNames() []string { return core.StageNames() }

// StageTimings returns per-stage wall-clock timings for this
// compilation, one entry per StageNames() element. Disabled stages
// report a zero duration, and so does every stage of a result restored
// from a store tier, which ran none.
func (r *Result) StageTimings() []StageTime {
	out := make([]StageTime, len(r.res.Stages))
	copy(out, r.res.Stages)
	return out
}

// Warnings returns non-fatal analyzer diagnostics (e.g. complex
// ordering comparisons), formatted with source positions.
func (r *Result) Warnings() []string {
	if r.rec != nil {
		return append([]string(nil), r.rec.Warnings...)
	}
	var out []string
	for _, w := range r.res.Info.Warnings {
		out = append(out, w.Error())
	}
	return out
}

// AST returns the normalized source rendering of the parsed program
// (canonical spacing, explicit precedence). A result restored from a
// store tier renders it by compiling its inputs again, as IRText does.
func (r *Result) AST() string {
	if res := r.compiled(); res != nil {
		return mlang.Format(res.Info.File)
	}
	return ""
}

// CPrototype returns a small C header declaring the compiled function.
func (r *Result) CPrototype() string {
	if r.rec != nil {
		return r.rec.CPrototype
	}
	return cgen.Prototype(r.res.Func)
}

// WriteBundle writes a ready-to-build C project into dir: the compiled
// function (<entry>.c), its prototype header (<entry>.h), the support
// header asip_intrinsics.h, and a minimal Makefile. The directory is
// created if needed.
func (r *Result) WriteBundle(dir string) error {
	if r.res.CSource == "" {
		return fmt.Errorf("mat2c: compile with SkipC unset to write a bundle")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := r.res.Entry
	files := map[string]string{
		"asip_intrinsics.h": r.res.CHeader,
		name + ".c":         r.res.CSource,
		name + ".h":         r.CPrototype(),
		"Makefile": fmt.Sprintf(
			"# Generated by mat2c for target %q.\n"+
				"# Host build uses the portable intrinsic fallbacks; an ASIP\n"+
				"# toolchain should define ASIP_HW and its own mappings.\n"+
				"CC ?= cc\nCFLAGS ?= -O2 -Wall\n\n%s.o: %s.c %s.h asip_intrinsics.h\n\t$(CC) $(CFLAGS) -c %s.c -o %s.o\n\nclean:\n\trm -f %s.o\n",
			r.proc.Name, name, name, name, name, name, name),
	}
	for fn, content := range files {
		if err := os.WriteFile(filepath.Join(dir, fn), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the compiled function on the cycle-model ASIP simulator.
// Arguments may be float64, int64, complex128, or *Array, matching the
// declared parameter types. It returns the function results (same Go
// types), and the simulated cycle count.
func (r *Result) Run(args ...interface{}) ([]interface{}, int64, error) {
	return r.res.Run(args...)
}

// RunContext executes like Run under a cancellable context: the
// simulator polls ctx every vm.CancelCheckStride executed instructions
// and stops with an error unwrapping to ctx.Err() once it fires.
// Cancellation polling never charges cycles, so a run that completes is
// accounted identically to Run.
func (r *Result) RunContext(ctx context.Context, args ...interface{}) ([]interface{}, int64, error) {
	return r.res.RunContext(ctx, args...)
}

// Stats describes one simulator run in detail.
type Stats struct {
	// Cycles is the charged cycle count.
	Cycles int64
	// Executed is the dynamic instruction count.
	Executed int64
	// ClassCounts tallies executed instructions per cost class /
	// custom-instruction name.
	ClassCounts map[string]int64
}

// RunWithStats executes like Run but also returns per-class execution
// counts.
func (r *Result) RunWithStats(args ...interface{}) ([]interface{}, *Stats, error) {
	return r.RunWithStatsContext(context.Background(), args...)
}

// RunWithStatsContext executes like RunWithStats under a cancellable
// context (see RunContext for the cancellation contract).
func (r *Result) RunWithStatsContext(ctx context.Context, args ...interface{}) ([]interface{}, *Stats, error) {
	return r.RunTracedContext(ctx, nil, args...)
}

// RunTraced executes like RunWithStats while writing one line per
// executed instruction to w (a debugging aid; output can be large).
func (r *Result) RunTraced(w io.Writer, args ...interface{}) ([]interface{}, *Stats, error) {
	return r.RunTracedContext(context.Background(), w, args...)
}

// RunTracedContext is RunTraced under a cancellable context (see
// RunContext for the cancellation contract). A nil w traces nothing.
func (r *Result) RunTracedContext(ctx context.Context, w io.Writer, args ...interface{}) ([]interface{}, *Stats, error) {
	m := vm.NewMachine(r.proc)
	m.Trace = w
	out, err := r.res.RunOnContext(ctx, m, args...)
	if err != nil {
		return nil, nil, err
	}
	return out, &Stats{Cycles: m.Cycles, Executed: m.Executed, ClassCounts: m.ClassCounts}, nil
}
