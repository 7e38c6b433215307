package dse

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/vm"
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

// ValidateKernels checks a kernel-subset selection without running
// anything (for request validation in front ends).
func ValidateKernels(names []string) error {
	if _, err := bench.SelectKernels(names); err != nil {
		return fmt.Errorf("dse: %w", err)
	}
	return nil
}

// EvalVariantsContext evaluates enumerated variants in order against
// the kernel subset named by opts — exactly the per-variant step
// ExploreContext runs, exported as the work-unit entry point for
// sharded (fleet) execution. Because a sharded sweep evaluates each
// variant through this same step, its per-variant results are
// byte-identical to the single-process run's. It stops with ctx's
// error, without results, when ctx ends before a variant.
func EvalVariantsContext(ctx context.Context, vs []*Variant, opts Options) ([]VariantResult, error) {
	opts = opts.withDefaults()
	kernels, err := bench.SelectKernels(opts.Kernels)
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	cache := opts.Cache
	if cache == nil {
		cache = mat2c.NewCache(0)
	}
	out := make([]VariantResult, len(vs))
	if err := evalRun(ctx, vs, kernels, opts, cache, func(i int, vr VariantResult) { out[i] = vr }); err != nil {
		return nil, err
	}
	return out, nil
}

// evalRun evaluates vs in order, handing each result to done with its
// index in vs. It first computes the variants' cache keys (one
// rendering of each variant's processor) and, when the cache's remote
// tier reads in batches, reads ahead in one go what their lookups will
// ask it for (mat2c.Cache.Prefetch) and evaluates the run through the
// handle Prefetch returns, which it drops on return. It stops with
// ctx's error when ctx ends before a variant.
func evalRun(ctx context.Context, vs []*Variant, kernels []*bench.Kernel, opts Options, cache *mat2c.Cache, done func(int, VariantResult)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	keys := make([][]mat2c.Key, len(vs))
	errs := make([]error, len(vs))
	for i, v := range vs {
		keys[i], errs[i] = variantKeys(v, kernels, opts)
	}
	if cache.CanPrefetch() {
		cache = cache.Prefetch(wants(keys, kernels, opts))
	}
	for i, v := range vs {
		if err := ctx.Err(); err != nil {
			return err
		}
		done(i, evalVariant(ctx, v, kernels, opts, cache, keys[i], errs[i]))
	}
	return nil
}

// compileOptions are the options every kernel of v compiles under.
func compileOptions(v *Variant, opts Options) mat2c.Options {
	return mat2c.Options{Processor: v.Proc, SkipC: !opts.EmitC}
}

// variantKeys returns the cache keys of v's kernels, in kernel order.
func variantKeys(v *Variant, kernels []*bench.Kernel, opts Options) ([]mat2c.Key, error) {
	ins := make([]mat2c.Input, len(kernels))
	for i, k := range kernels {
		ins[i] = mat2c.Input{Source: k.Source, Entry: k.Entry, Params: k.Params}
	}
	return mat2c.Keys(compileOptions(v, opts), ins...)
}

// wants lists the lookups of variants whose kernel keys are keys, for
// Prefetch: each kernel's compilation and the events of its verified
// run (see bench.Kernel.Simulate).
func wants(keys [][]mat2c.Key, kernels []*bench.Kernel, opts Options) []mat2c.Want {
	digests := make([]string, len(kernels))
	for i, k := range kernels {
		digests[i] = k.Case(bench.SizeFor(k, opts.Scale)).Digest()
	}
	out := make([]mat2c.Want, 0, len(keys)*len(kernels))
	for _, ks := range keys {
		for i, k := range ks {
			out = append(out, mat2c.Want{Key: k, CaseDigest: digests[i]})
		}
	}
	return out
}

// evalVariant compiles every kernel against one variant and scores
// its program on the kernel's case. Each distinct (program, kernel,
// size) is simulated and verified against the kernel's Go reference
// once per cache; every other variant compiling to the same program
// is priced from that run's events (see bench.Kernel.Simulate). It
// observes ctx between kernels and inside compile/simulate, so a
// cancelled sweep abandons the variant quickly. keys and keysErr are
// variantKeys' answer for v; when the keys could not be computed, the
// variant fails to compile its first kernel with keysErr.
func evalVariant(ctx context.Context, v *Variant, kernels []*bench.Kernel, opts Options, cache *mat2c.Cache, keys []mat2c.Key, keysErr error) VariantResult {
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
	for j, k := range kernels {
		if err := ctx.Err(); err != nil {
			vr.Error = fmt.Sprintf("%s: cancelled: %v", k.Name, err)
			return vr
		}
		n := bench.SizeFor(k, opts.Scale)
		vr.CacheLookups++
		if keysErr != nil {
			vr.Error = fmt.Sprintf("%s: compile: %v", k.Name, keysErr)
			return vr
		}
		res, hit, err := mat2c.CompileKey(ctx, cache, keys[j])
		if err != nil {
			vr.Error = fmt.Sprintf("%s: compile: %v", k.Name, err)
			return vr
		}
		if hit {
			vr.CacheHits++
		}
		m := vm.NewMachine(res.Processor())
		if err := k.Simulate(ctx, cache, m, res.Program(), n); err != nil {
			var verr *bench.VerifyError
			if errors.As(err, &verr) {
				vr.Error = fmt.Sprintf("%s: verify: %v", k.Name, verr.Err)
			} else {
				vr.Error = fmt.Sprintf("%s: run: %v", k.Name, err)
			}
			return vr
		}
		vr.KernelCycles[k.Name] = m.Cycles
		vr.TotalCycles += m.Cycles
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
			key := v.contentKey()
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
	kernels, err := bench.SelectKernels(opts.Kernels)
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
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

// prefetchLookups is about how many lookups one prefetch covers: a
// sweep reads ahead for runs of compile groups of about this many
// lookups, so the answers it holds at once stay a few hundred
// kilobytes while a seed-1 sweep's 1632 lookups take 26 runs and about
// 30 batch reads (one per run, and one more for each run that names
// programs not seen before).
const prefetchLookups = 64

// runs cuts groups, in order, into runs of whole groups of about
// prefetchLookups lookups each, listing each run's variant indices in
// enumeration order. Runs are shorter where that would leave fewer
// than four per worker, so a small sweep on many workers still spreads.
func runs(groups [][]int, kernels, workers int) [][]int {
	lookups := 0
	for _, g := range groups {
		lookups += len(g) * kernels
	}
	size := min(prefetchLookups, lookups/(4*workers))
	var out [][]int
	var cur []int
	for _, g := range groups {
		cur = append(cur, g...)
		if len(cur)*kernels >= size {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// ExploreContext is Explore under a cancellable context. Workers take
// runs of whole CompileGroups (runs), evaluating a run's variants in
// enumeration order after reading ahead for them (evalRun), so cost
// siblings run back to back on one worker and share one back-half
// compile per kernel; a worker that misses while another compiles the
// same kernel for a target its variant agrees with waits for that
// compile (core.CompileContext) rather than making its own. Workers
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
	kernels, err := bench.SelectKernels(opts.Kernels)
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	cache := opts.Cache
	if cache == nil {
		cache = mat2c.NewCache(0)
	}

	results := make([]VariantResult, len(variants))
	var evaluated atomic.Int64
	var wg sync.WaitGroup
	work := runs(CompileGroups(variants), len(kernels), opts.Jobs)
	next := make(chan []int)
	workers := opts.Jobs
	if workers > len(work) {
		workers = len(work)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range next {
				vs := make([]*Variant, len(run))
				for j, i := range run {
					vs[j] = variants[i]
				}
				// A cancelled sweep's error is reported below.
				evalRun(ctx, vs, kernels, opts, cache, func(j int, vr VariantResult) {
					results[run[j]] = vr
					evaluated.Add(1)
					if opts.OnVariant != nil {
						opts.OnVariant(vr)
					}
				})
			}
		}()
	}
feed:
	for _, run := range work {
		select {
		case next <- run:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
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
