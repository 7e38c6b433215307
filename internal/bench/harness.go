package bench

import (
	"context"
	"fmt"
	"math"
	"strings"

	mat2c "mat2c"
	"mat2c/internal/core"
	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

// Stats reports one (kernel, pipeline) measurement.
type Stats struct {
	Cycles          int64
	Executed        int64
	CodeSize        int
	VectorizedLoops int
	Intrinsics      map[string]int
}

// CloneArgs deep-copies array arguments so pipelines never share
// state (exported for harnesses that drive kernels through their own
// compilation path; Kernel.Case hands out such copies already).
func CloneArgs(args []interface{}) []interface{} { return cloneArgs(args) }

// Verify compares pipeline outputs against a kernel's Go reference
// with a relative tolerance (exported companion of CloneArgs for
// external harnesses).
func Verify(got, want []interface{}) error { return verify(got, want) }

// cloneArgs deep-copies array arguments so pipelines never share state.
func cloneArgs(args []interface{}) []interface{} {
	out := make([]interface{}, len(args))
	for i, a := range args {
		if arr, ok := a.(*ir.Array); ok {
			out[i] = arr.Clone()
		} else {
			out[i] = a
		}
	}
	return out
}

// verify compares pipeline outputs against the kernel's Go reference
// with a relative tolerance (pipelines may re-associate reductions).
func verify(got, want []interface{}) error {
	const tol = 1e-6
	if len(got) != len(want) {
		return fmt.Errorf("result count %d, want %d", len(got), len(want))
	}
	for i := range want {
		switch w := want[i].(type) {
		case float64:
			g, ok := got[i].(float64)
			if !ok || math.Abs(g-w) > tol*(1+math.Abs(w)) {
				return fmt.Errorf("result %d: got %v, want %v", i, got[i], w)
			}
		case int64:
			if g, ok := got[i].(int64); !ok || g != w {
				return fmt.Errorf("result %d: got %v, want %v", i, got[i], w)
			}
		case complex128:
			g, ok := got[i].(complex128)
			if !ok || cAbs(g-w) > tol*(1+cAbs(w)) {
				return fmt.Errorf("result %d: got %v, want %v", i, got[i], w)
			}
		case *ir.Array:
			g, ok := got[i].(*ir.Array)
			if !ok || g.Rows != w.Rows || g.Cols != w.Cols {
				return fmt.Errorf("result %d: shape mismatch", i)
			}
			// Scale tolerance by the array's magnitude (FFT butterflies
			// accumulate differently than the direct-DFT oracle).
			scale := 1.0
			for j := 0; j < w.Len(); j++ {
				if m := cAbs(w.At(j)); m > scale {
					scale = m
				}
			}
			for j := 0; j < w.Len(); j++ {
				if cAbs(g.At(j)-w.At(j)) > tol*scale {
					return fmt.Errorf("result %d[%d]: got %v, want %v", i, j, g.At(j), w.At(j))
				}
			}
		default:
			return fmt.Errorf("result %d: unsupported reference type %T", i, want[i])
		}
	}
	return nil
}

func cAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

// RunPipeline compiles kernel k under cfg, executes it at problem size
// n on the cycle-model VM, verifies the outputs against the Go
// reference, and returns the measurement.
func RunPipeline(k *Kernel, cfg core.Config, n int) (*Stats, error) {
	return RunPipelineContext(context.Background(), k, cfg, n)
}

// RunPipelineContext is RunPipeline under a cancellable context: the
// compiler observes ctx between stages and the simulator polls it while
// executing, so a deadline stops the measurement promptly.
func RunPipelineContext(ctx context.Context, k *Kernel, cfg core.Config, n int) (*Stats, error) {
	res, err := core.CompileContext(ctx, k.Source, k.Entry, k.Params, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", k.Name, err)
	}
	kc := k.Case(n)
	m := vm.NewMachine(cfg.Processor)
	got, err := res.RunOnContext(ctx, m, kc.Args()...)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", k.Name, err)
	}
	if err := verify(got, kc.Want); err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	return &Stats{
		Cycles:          m.Cycles,
		Executed:        m.Executed,
		CodeSize:        res.CodeSize(),
		VectorizedLoops: res.VectorizedLoops,
		Intrinsics:      res.Intrinsics.Selected,
	}, nil
}

// RunKernelOn runs kernel k's full proposed pipeline against an
// in-memory processor description at problem size n. It is the entry
// point design-space exploration uses: the target never needs a name
// in the catalog or a file on disk.
func RunKernelOn(proc *pdesc.Processor, k *Kernel, n int) (*Stats, error) {
	return RunPipeline(k, core.Proposed(proc), n)
}

// OptionsFor maps a core pipeline Config onto the equivalent public
// mat2c.Options, so harnesses that enumerate configs directly (the
// ablation variants) can still compile through the content-addressed
// cache. Every ablation combination is expressible: the public options
// are subtractive flags over the full pipeline.
func OptionsFor(cfg core.Config) mat2c.Options {
	o := mat2c.Options{
		Processor:    cfg.Processor,
		NoVectorize:  !cfg.Vectorize,
		NoIntrinsics: !cfg.Intrinsics,
		NoFusion:     !cfg.Fusion,
		SkipC:        !cfg.EmitC,
	}
	if cfg.OptLevel <= 0 {
		o.OptLevel = -1
	} else {
		o.OptLevel = cfg.OptLevel
	}
	return o
}

// RunPipelineCached is RunPipelineContext through a content-addressed
// cache: identical (kernel, config) compilations are compiled once and
// restored thereafter — from memory, or from the cache's durable store
// across processes. The measurement contract is unchanged (outputs are
// still verified against the Go reference on every call).
func RunPipelineCached(ctx context.Context, c *mat2c.Cache, k *Kernel, cfg core.Config, n int) (*Stats, error) {
	if c == nil {
		return RunPipelineContext(ctx, k, cfg, n)
	}
	res, _, err := mat2c.CompileCachedContext(ctx, c, k.Source, k.Entry, k.Params, OptionsFor(cfg))
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", k.Name, err)
	}
	kc := k.Case(n)
	got, st, err := res.RunWithStatsContext(ctx, kc.Args()...)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", k.Name, err)
	}
	if err := verify(got, kc.Want); err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	return &Stats{
		Cycles:          st.Cycles,
		Executed:        st.Executed,
		CodeSize:        res.CodeSize(),
		VectorizedLoops: res.VectorizedLoops(),
		Intrinsics:      res.SelectedIntrinsics(),
	}, nil
}

// runPipeline dispatches one generator measurement through the cache
// when the generator was built WithCache, and straight down the
// pipeline otherwise.
func runPipeline(o options, k *Kernel, cfg core.Config, n int) (*Stats, error) {
	if o.cache != nil {
		return RunPipelineCached(o.ctx, o.cache, k, cfg, n)
	}
	return RunPipelineContext(o.ctx, k, cfg, n)
}

// ----- Table I: headline speedups -----

// Table1Row is one line of the headline comparison.
type Table1Row struct {
	Kernel   string  `json:"kernel"`
	Desc     string  `json:"desc"`
	Size     int     `json:"size"`
	Baseline int64   `json:"baseline_cycles"` // MATLAB-Coder-style code on the ASIP
	Proposed int64   `json:"proposed_cycles"` // full pipeline on the ASIP
	Speedup  float64 `json:"speedup"`
}

// Table1 regenerates the headline table on the given target (the paper's
// DSP ASIP by default). scale multiplies each kernel's default problem
// size (1 for the paper-scale run).
func Table1(proc *pdesc.Processor, scale float64, opts ...Opt) ([]Table1Row, error) {
	o := getOptions(opts)
	ks := Kernels()
	rows := make([]Table1Row, len(ks))
	err := forEach(len(ks), o.jobs, func(i int) error {
		k := ks[i]
		n := SizeFor(k, scale)
		base, err := runPipeline(o, k, core.Baseline(proc), n)
		if err != nil {
			return err
		}
		prop, err := runPipeline(o, k, core.Proposed(proc), n)
		if err != nil {
			return err
		}
		rows[i] = Table1Row{
			Kernel: k.Name, Desc: k.Desc, Size: n,
			Baseline: base.Cycles, Proposed: prop.Cycles,
			Speedup: float64(base.Cycles) / float64(prop.Cycles),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SizeFor returns the problem size for a kernel at the given scale
// (1.0 = paper scale); matmul scales by the cube root so work scales
// linearly, and FFT sizes round to powers of two.
func SizeFor(k *Kernel, scale float64) int {
	s := scale
	if k.Name == "matmul" {
		// Work grows as n^3: scale the edge length by the cube root so a
		// scaled-down run keeps the loops long enough to be meaningful.
		s = math.Cbrt(scale)
	}
	n := int(float64(k.DefaultSize) * s)
	if n < 8 {
		n = 8
	}
	if k.Name == "fft" {
		// Round to the nearest power of two.
		p := 8
		for p*2 <= n {
			p *= 2
		}
		n = p
	}
	return n
}

// Table1Text renders the table.
func Table1Text(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: cycle counts on the DSP ASIP — MATLAB-Coder-style baseline vs. proposed compiler\n")
	fmt.Fprintf(&b, "%-8s %-46s %8s %12s %12s %9s\n", "kernel", "description", "size", "baseline", "proposed", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-46s %8d %12d %12d %8.1fx\n",
			r.Kernel, r.Desc, r.Size, r.Baseline, r.Proposed, r.Speedup)
	}
	return b.String()
}

// ----- Figure 2: feature ablation -----

// AblationConfig names one pipeline variant of the ablation.
type AblationConfig struct {
	Name string
	Cfg  func(p *pdesc.Processor) core.Config
}

// AblationConfigs returns the Fig. 2 variants, weakest first. All run on
// the same ASIP; they differ only in which compiler features are on.
func AblationConfigs() []AblationConfig {
	return []AblationConfig{
		{"coder-style", func(p *pdesc.Processor) core.Config { return core.Baseline(p) }},
		{"+fusion", func(p *pdesc.Processor) core.Config {
			c := core.Baseline(p)
			c.Fusion = true
			return c
		}},
		{"+simd", func(p *pdesc.Processor) core.Config {
			c := core.Baseline(p)
			c.Fusion = true
			c.Vectorize = true
			return c
		}},
		{"+custom-instr", func(p *pdesc.Processor) core.Config {
			c := core.Baseline(p)
			c.Fusion = true
			c.Intrinsics = true
			return c
		}},
		{"full", func(p *pdesc.Processor) core.Config { return core.Proposed(p) }},
	}
}

// Fig2Row is one kernel's ablation: speedup of each variant over the
// coder-style baseline.
type Fig2Row struct {
	Kernel   string    `json:"kernel"`
	Variants []string  `json:"variants"`
	Cycles   []int64   `json:"cycles"`
	Speedups []float64 `json:"speedups"`
}

// Fig2 regenerates the feature-ablation figure data.
func Fig2(proc *pdesc.Processor, scale float64, opts ...Opt) ([]Fig2Row, error) {
	o := getOptions(opts)
	configs := AblationConfigs()
	ks := Kernels()
	rows := make([]Fig2Row, len(ks))
	err := forEach(len(ks), o.jobs, func(ki int) error {
		k := ks[ki]
		n := SizeFor(k, scale)
		row := Fig2Row{Kernel: k.Name}
		var base int64
		for i, ac := range configs {
			st, err := runPipeline(o, k, ac.Cfg(proc), n)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k.Name, ac.Name, err)
			}
			if i == 0 {
				base = st.Cycles
			}
			row.Variants = append(row.Variants, ac.Name)
			row.Cycles = append(row.Cycles, st.Cycles)
			row.Speedups = append(row.Speedups, float64(base)/float64(st.Cycles))
		}
		rows[ki] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig2Text renders the ablation as a table of speedups.
func Fig2Text(rows []Fig2Row) string {
	var b strings.Builder
	b.WriteString("Figure 2: speedup over coder-style baseline by compiler feature (ASIP target)\n")
	if len(rows) > 0 {
		fmt.Fprintf(&b, "%-8s", "kernel")
		for _, v := range rows[0].Variants {
			fmt.Fprintf(&b, " %13s", v)
		}
		b.WriteString("\n")
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Kernel)
		for _, s := range r.Speedups {
			fmt.Fprintf(&b, " %12.2fx", s)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ----- Figure 3: SIMD width sweep -----

// Fig3Row is one kernel's speedup across SIMD widths (full pipeline,
// speedup over the coder-style baseline on the same ASIP family).
type Fig3Row struct {
	Kernel   string    `json:"kernel"`
	Widths   []int     `json:"widths"`
	Cycles   []int64   `json:"cycles"`
	Speedups []float64 `json:"speedups"`
}

// WidthTargets returns the sweep family: identical ISA, lane count 1-8.
func WidthTargets() []*pdesc.Processor {
	return []*pdesc.Processor{
		pdesc.Builtin("nosimd"),
		pdesc.Builtin("wide2"),
		pdesc.Builtin("dspasip"),
		pdesc.Builtin("wide8"),
	}
}

// Fig3 regenerates the width-sweep figure data over the shipped
// width-sweep family.
func Fig3(scale float64, opts ...Opt) ([]Fig3Row, error) {
	return Fig3On(WidthTargets(), pdesc.Builtin("dspasip"), scale, opts...)
}

// Fig3On runs the width sweep over arbitrary in-memory targets,
// measuring each kernel's full-pipeline cycles on every target against
// the coder-style baseline on ref.
func Fig3On(targets []*pdesc.Processor, ref *pdesc.Processor, scale float64, opts ...Opt) ([]Fig3Row, error) {
	o := getOptions(opts)
	ks := Kernels()
	rows := make([]Fig3Row, len(ks))
	err := forEach(len(ks), o.jobs, func(ki int) error {
		k := ks[ki]
		n := SizeFor(k, scale)
		base, err := runPipeline(o, k, core.Baseline(ref), n)
		if err != nil {
			return err
		}
		row := Fig3Row{Kernel: k.Name}
		for _, p := range targets {
			st, err := runPipeline(o, k, core.Proposed(p), n)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k.Name, p.Name, err)
			}
			row.Widths = append(row.Widths, p.SIMDWidth)
			row.Cycles = append(row.Cycles, st.Cycles)
			row.Speedups = append(row.Speedups, float64(base.Cycles)/float64(st.Cycles))
		}
		rows[ki] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig3Text renders the sweep.
func Fig3Text(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3: speedup over baseline vs. SIMD width (full pipeline)\n")
	if len(rows) > 0 {
		fmt.Fprintf(&b, "%-8s", "kernel")
		for _, w := range rows[0].Widths {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("W=%d", w))
		}
		b.WriteString("\n")
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Kernel)
		for _, s := range r.Speedups {
			fmt.Fprintf(&b, " %8.2fx", s)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ----- Table II: static code size -----

// Table2Row compares static VM instruction counts.
type Table2Row struct {
	Kernel       string  `json:"kernel"`
	BaselineSize int     `json:"baseline_size"`
	ProposedSize int     `json:"proposed_size"`
	Ratio        float64 `json:"ratio"`
}

// Table2 regenerates the code-size comparison.
func Table2(proc *pdesc.Processor, opts ...Opt) ([]Table2Row, error) {
	o := getOptions(opts)
	ks := Kernels()
	rows := make([]Table2Row, len(ks))
	err := forEach(len(ks), o.jobs, func(i int) error {
		k := ks[i]
		size := func(cfg core.Config) (int, error) {
			if o.cache != nil {
				res, _, err := mat2c.CompileCachedContext(o.ctx, o.cache, k.Source, k.Entry, k.Params, OptionsFor(cfg))
				if err != nil {
					return 0, err
				}
				return res.CodeSize(), nil
			}
			res, err := core.CompileContext(o.ctx, k.Source, k.Entry, k.Params, cfg)
			if err != nil {
				return 0, err
			}
			return res.CodeSize(), nil
		}
		base, err := size(core.Baseline(proc))
		if err != nil {
			return err
		}
		prop, err := size(core.Proposed(proc))
		if err != nil {
			return err
		}
		rows[i] = Table2Row{
			Kernel:       k.Name,
			BaselineSize: base,
			ProposedSize: prop,
			Ratio:        float64(prop) / float64(base),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table2Text renders the code-size table.
func Table2Text(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II: static code size (VM instructions)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %8s\n", "kernel", "baseline", "proposed", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12d %12d %8.2f\n", r.Kernel, r.BaselineSize, r.ProposedSize, r.Ratio)
	}
	return b.String()
}
