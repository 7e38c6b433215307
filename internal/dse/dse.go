package dse

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mat2c "mat2c"
	"mat2c/internal/bench"
)

// Options tunes one exploration run.
type Options struct {
	// Jobs bounds the worker pool (default: NumCPU).
	Jobs int
	// Scale multiplies the kernels' default problem sizes
	// (default 0.25: large enough to separate variants, small enough
	// to sweep hundreds of candidates).
	Scale float64
	// Kernels restricts the benchmark suite to the named kernels
	// (default: the full suite).
	Kernels []string
	// Cache is the shared compilation cache; nil allocates a private
	// one. Passing the service's cache lets identical sweeps hit.
	Cache *mat2c.Cache
	// EmitC additionally generates the ANSI C artifacts (slower;
	// off for pure cycle-model scoring).
	EmitC bool
	// OnVariant, when set, is called once per evaluated variant as
	// results complete (from worker goroutines; must be safe for
	// concurrent use).
	OnVariant func(VariantResult)
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = runtime.NumCPU()
	}
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	return o
}

// VariantResult is one variant's evaluation.
type VariantResult struct {
	Name         string `json:"name"`
	SIMDWidth    int    `json:"simd_width"`
	ComplexLanes int    `json:"complex_lanes"`
	// Groups is the custom-instruction group subset the variant keeps.
	Groups  []string `json:"groups"`
	CostSet string   `json:"cost_set,omitempty"`
	// Instructions counts the variant's custom instructions; ISACost
	// is the instruction-set cost proxy (instruction count plus the
	// sum of per-instruction cycle costs) — a stand-in for the silicon
	// the instructions would occupy.
	Instructions int `json:"instructions"`
	ISACost      int `json:"isa_cost"`
	// TotalCycles sums the simulated cycle counts over the kernel
	// suite; KernelCycles breaks them out per kernel.
	TotalCycles  int64            `json:"total_cycles"`
	KernelCycles map[string]int64 `json:"kernel_cycles,omitempty"`
	// CodeSize sums static VM instruction counts over the suite.
	CodeSize int `json:"code_size"`
	// CacheLookups counts kernel compilations attempted through the
	// cache; CacheHits counts how many were served from it.
	CacheLookups int `json:"cache_lookups"`
	CacheHits    int `json:"cache_hits"`
	// Pareto marks frontier members: no other variant is at least as
	// good on both objectives (TotalCycles, ISACost) and better on one.
	Pareto bool   `json:"pareto"`
	Error  string `json:"error,omitempty"`
}

// Report is the machine-readable result of an exploration run.
type Report struct {
	Base     string          `json:"base"`
	Scale    float64         `json:"scale"`
	Jobs     int             `json:"jobs"`
	Kernels  []string        `json:"kernels"`
	Variants []VariantResult `json:"variants"`
	// Frontier lists Pareto-optimal variant names ordered by total
	// cycles ascending (fastest first).
	Frontier []string `json:"frontier"`
	// CacheLookups/CacheHits aggregate compile-cache traffic for the
	// run; hits > 0 on a repeated sweep is the cache working.
	CacheLookups uint64 `json:"cache_lookups"`
	CacheHits    uint64 `json:"cache_hits"`
	ElapsedUS    int64  `json:"elapsed_us"`
}

// selectKernels resolves the kernel subset, defaulting to the suite.
func selectKernels(names []string) ([]*bench.Kernel, error) {
	if len(names) == 0 {
		return bench.Kernels(), nil
	}
	var out []*bench.Kernel
	for _, n := range names {
		k := bench.KernelByName(n)
		if k == nil {
			return nil, fmt.Errorf("dse: unknown kernel %q", n)
		}
		out = append(out, k)
	}
	return out, nil
}

// ValidateKernels checks a kernel-subset selection without running
// anything (for request validation in front ends).
func ValidateKernels(names []string) error {
	_, err := selectKernels(names)
	return err
}

// EvalVariantContext evaluates one enumerated variant against the
// kernel subset named by opts — exactly the per-variant step
// ExploreContext runs, exported as the work-unit entry point for
// sharded (fleet) execution. Because a sharded sweep evaluates each
// variant through this same function, its per-variant results are
// byte-identical to the single-process run's.
func EvalVariantContext(ctx context.Context, v *Variant, opts Options) (VariantResult, error) {
	opts = opts.withDefaults()
	kernels, err := selectKernels(opts.Kernels)
	if err != nil {
		return VariantResult{}, err
	}
	cache := opts.Cache
	if cache == nil {
		cache = mat2c.NewCache(0)
	}
	return evalVariant(ctx, v, kernels, opts, cache), nil
}

// evalVariant compiles and simulates every kernel against one variant,
// verifying each run against the kernel's Go reference (computed once
// per kernel and size per process, see bench.Kernel.Case). It observes ctx
// between kernels and inside compile/simulate, so a cancelled sweep
// abandons the variant quickly.
func evalVariant(ctx context.Context, v *Variant, kernels []*bench.Kernel, opts Options, cache *mat2c.Cache) VariantResult {
	vr := VariantResult{
		Name:         v.Proc.Name,
		SIMDWidth:    v.Proc.SIMDWidth,
		ComplexLanes: v.Proc.ComplexLanes,
		Groups:       v.Groups,
		CostSet:      v.CostSet,
		Instructions: len(v.Proc.Instructions),
		KernelCycles: make(map[string]int64, len(kernels)),
	}
	for i := range v.Proc.Instructions {
		// IssueCost, not the literal Cycles: instructions deferring to a
		// cost class are priced by the variant's cost table.
		vr.ISACost += 1 + v.Proc.IssueCost(&v.Proc.Instructions[i])
	}
	for _, k := range kernels {
		if err := ctx.Err(); err != nil {
			vr.Error = fmt.Sprintf("%s: cancelled: %v", k.Name, err)
			return vr
		}
		n := bench.SizeFor(k, opts.Scale)
		vr.CacheLookups++
		res, hit, err := mat2c.CompileCachedContext(ctx, cache, k.Source, k.Entry, k.Params,
			mat2c.Options{Processor: v.Proc, SkipC: !opts.EmitC})
		if err != nil {
			vr.Error = fmt.Sprintf("%s: compile: %v", k.Name, err)
			return vr
		}
		if hit {
			vr.CacheHits++
		}
		kc := k.Case(n)
		out, stats, err := res.RunWithStatsContext(ctx, kc.Args()...)
		if err != nil {
			vr.Error = fmt.Sprintf("%s: run: %v", k.Name, err)
			return vr
		}
		if err := bench.Verify(out, kc.Want); err != nil {
			vr.Error = fmt.Sprintf("%s: verify: %v", k.Name, err)
			return vr
		}
		vr.KernelCycles[k.Name] = stats.Cycles
		vr.TotalCycles += stats.Cycles
		vr.CodeSize += res.CodeSize()
	}
	return vr
}

// Explore evaluates every variant of every sweep on a bounded worker
// pool and returns the scored report. Sweeps over different bases
// merge into one variant list (and one frontier); duplicate machines
// across sweeps are pruned.
func Explore(sweeps []*Sweep, opts Options) (*Report, error) {
	return ExploreContext(context.Background(), sweeps, opts)
}

// EnumerateAll expands every sweep and deduplicates variants across
// them in deterministic order, returning the variants with the sweeps'
// base names. It is the enumeration step shared by ExploreContext and
// the fleet coordinator's shard planner, so both agree on variant
// identity and order.
func EnumerateAll(ctx context.Context, sweeps []*Sweep) ([]*Variant, []string, error) {
	var variants []*Variant
	var bases []string
	seen := map[string]bool{}
	for _, sw := range sweeps {
		vs, err := sw.EnumerateContext(ctx)
		if err != nil {
			return nil, nil, err
		}
		base := sw.Base
		if base == "" {
			base = "dspasip"
		}
		bases = append(bases, base)
		for _, v := range vs {
			key, err := contentKey(v.Proc)
			if err != nil {
				return nil, nil, err
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			variants = append(variants, v)
		}
	}
	if len(variants) == 0 {
		return nil, nil, fmt.Errorf("dse: no variants to explore")
	}
	return variants, bases, nil
}

// Assemble builds the final report from per-variant results in
// enumeration order — the merge step shared by ExploreContext and the
// fleet coordinator, so a sweep sharded across workers and merged here
// is byte-identical to single-process execution (the caller stamps
// ElapsedUS, which is wall time and never part of the identity).
func Assemble(bases []string, opts Options, results []VariantResult) (*Report, error) {
	opts = opts.withDefaults()
	kernels, err := selectKernels(opts.Kernels)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Base:     strings.Join(bases, ","),
		Scale:    opts.Scale,
		Jobs:     opts.Jobs,
		Variants: results,
	}
	for _, k := range kernels {
		rep.Kernels = append(rep.Kernels, k.Name)
	}
	for i := range results {
		rep.CacheLookups += uint64(results[i].CacheLookups)
		rep.CacheHits += uint64(results[i].CacheHits)
	}
	markFrontier(rep)
	return rep, nil
}

// ExploreContext is Explore under a cancellable context. Workers
// observe ctx between variants (and between kernels within a variant),
// so a cancelled sweep stops evaluating promptly; the partial work is
// discarded and the returned error unwraps to ctx.Err().
func ExploreContext(ctx context.Context, sweeps []*Sweep, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	begin := time.Now()

	variants, bases, err := EnumerateAll(ctx, sweeps)
	if err != nil {
		return nil, err
	}
	kernels, err := selectKernels(opts.Kernels)
	if err != nil {
		return nil, err
	}
	cache := opts.Cache
	if cache == nil {
		cache = mat2c.NewCache(0)
	}

	results := make([]VariantResult, len(variants))
	var evaluated atomic.Int64
	var wg sync.WaitGroup
	idx := make(chan int)
	workers := opts.Jobs
	if workers > len(variants) {
		workers = len(variants)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// Drain without evaluating once the sweep is cancelled so
				// every queued variant is skipped, not just unqueued ones.
				if ctx.Err() != nil {
					continue
				}
				results[i] = evalVariant(ctx, variants[i], kernels, opts, cache)
				evaluated.Add(1)
				if opts.OnVariant != nil {
					opts.OnVariant(results[i])
				}
			}
		}()
	}
feed:
	for i := range variants {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dse: exploration cancelled after %d of %d variants: %w",
			evaluated.Load(), len(variants), err)
	}

	rep, err := Assemble(bases, opts, results)
	if err != nil {
		return nil, err
	}
	rep.ElapsedUS = time.Since(begin).Microseconds()
	return rep, nil
}

// ExploreSweep explores a single sweep.
func ExploreSweep(sw *Sweep, opts Options) (*Report, error) {
	return Explore([]*Sweep{sw}, opts)
}

// ExploreSweepContext explores a single sweep under a cancellable
// context.
func ExploreSweepContext(ctx context.Context, sw *Sweep, opts Options) (*Report, error) {
	return ExploreContext(ctx, []*Sweep{sw}, opts)
}

// dominates reports whether a is at least as good as b on both
// objectives and strictly better on one (both minimized).
func dominates(a, b *VariantResult) bool {
	if a.TotalCycles > b.TotalCycles || a.ISACost > b.ISACost {
		return false
	}
	return a.TotalCycles < b.TotalCycles || a.ISACost < b.ISACost
}

// markFrontier sets Pareto on every non-dominated successful variant
// and fills Report.Frontier fastest-first.
func markFrontier(rep *Report) {
	var frontier []*VariantResult
	for i := range rep.Variants {
		a := &rep.Variants[i]
		if a.Error != "" {
			continue
		}
		dominated := false
		for j := range rep.Variants {
			b := &rep.Variants[j]
			if i == j || b.Error != "" {
				continue
			}
			if dominates(b, a) {
				dominated = true
				break
			}
		}
		if !dominated {
			a.Pareto = true
			frontier = append(frontier, a)
		}
	}
	sort.Slice(frontier, func(i, j int) bool {
		if frontier[i].TotalCycles != frontier[j].TotalCycles {
			return frontier[i].TotalCycles < frontier[j].TotalCycles
		}
		return frontier[i].ISACost < frontier[j].ISACost
	})
	rep.Frontier = make([]string, len(frontier))
	for i, v := range frontier {
		rep.Frontier[i] = v.Name
	}
}
