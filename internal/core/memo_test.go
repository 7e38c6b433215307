package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/dse"
	"mat2c/internal/ir"
	"mat2c/internal/isx"
	"mat2c/internal/pdesc"
	"mat2c/internal/sema"
)

// memoShapes are the pipeline configurations whose front halves differ:
// the paper's flow, the baseline (no fusion), the paper's flow without
// fusion, and the paper's flow with the scalar optimizer off.
var memoShapes = []struct {
	name string
	cfg  func(*pdesc.Processor) core.Config
}{
	{"proposed", core.Proposed},
	{"baseline", core.Baseline},
	{"nofusion", func(p *pdesc.Processor) core.Config {
		c := core.Proposed(p)
		c.Fusion = false
		return c
	}},
	{"O0", func(p *pdesc.Processor) core.Config {
		c := core.Proposed(p)
		c.OptLevel = 0
		return c
	}},
}

// fingerprint renders everything a compile produces that consumers
// read: the final IR, both C artifacts, the VM program's content hash
// and the pipeline statistics.
func fingerprint(r *core.Result) string {
	return fmt.Sprintf("%s\n--c--\n%s\n--h--\n%s\n--prog %s vec=%d intr=%v",
		ir.Print(r.Func), r.CSource, r.CHeader, r.Program.ContentHash(),
		r.VectorizedLoops, r.Intrinsics.Selected)
}

func compileKernel(t *testing.T, k *bench.Kernel, cfg core.Config) *core.Result {
	t.Helper()
	cfg.EmitC = true
	res, err := core.Compile(k.Source, k.Entry, k.Params, cfg)
	if err != nil {
		t.Fatalf("%s on %s: %v", k.Name, cfg.Processor.Name, err)
	}
	return res
}

func stage(r *core.Result, name string) int64 {
	for _, st := range r.Stages {
		if st.Stage == name {
			return int64(st.Duration)
		}
	}
	return -1
}

// TestFrontMemoEquivalence: for every kernel, target and pipeline shape,
// a compile served by the front-half memo equals one with the memo
// cleared, and back ends running on the memo's clones leave the stored
// IR untouched.
func TestFrontMemoEquivalence(t *testing.T) {
	targets := pdesc.BuiltinNames()
	for _, k := range bench.Kernels() {
		for _, shape := range memoShapes {
			cold := map[string]string{}
			for _, name := range targets {
				core.ResetMemos()
				cold[name] = fingerprint(compileKernel(t, k, shape.cfg(pdesc.Builtin(name))))
			}
			stored := core.FrontMemoFunc(k.Source, k.Entry, k.Params, shape.cfg(pdesc.Builtin(targets[0])))
			if stored == nil {
				t.Fatalf("%s/%s: front half not memoized", k.Name, shape.name)
			}
			before := ir.Print(stored)
			for _, name := range targets {
				res := compileKernel(t, k, shape.cfg(pdesc.Builtin(name)))
				if stage(res, "parse") != 0 || stage(res, "sema") != 0 {
					t.Errorf("%s/%s on %s: memo hit ran parse/sema: %v", k.Name, shape.name, name, res.Stages)
				}
				if got := fingerprint(res); got != cold[name] {
					t.Errorf("%s/%s on %s: memo hit differs from a cleared-memo compile\n got: %s\nwant: %s",
						k.Name, shape.name, name, got, cold[name])
				}
			}
			if after := ir.Print(stored); after != before {
				t.Errorf("%s/%s: back ends mutated the memoized IR\nbefore: %s\nafter: %s",
					k.Name, shape.name, before, after)
			}
			if n := core.FrontMemoLen(); n != 1 {
				t.Errorf("%s/%s: %d memo entries across targets, want 1", k.Name, shape.name, n)
			}
		}
	}
}

// TestFrontMemoStageTimes pins what a memo hit reports: no parse or
// sema time, and opt only for the post-vectorize cleanup, which the
// baseline pipeline does not run.
func TestFrontMemoStageTimes(t *testing.T) {
	k := bench.KernelByName("fir")
	core.ResetMemos()
	compileKernel(t, k, core.Baseline(pdesc.Builtin("dspasip")))
	res := compileKernel(t, k, core.Baseline(pdesc.Builtin("wide8")))
	for _, name := range []string{"parse", "sema", "opt"} {
		if d := stage(res, name); d != 0 {
			t.Errorf("memo hit: stage %s = %d ns, want 0", name, d)
		}
	}
	if len(res.Stages) != len(core.StageNames()) {
		t.Errorf("memo hit recorded %d stages, want %d", len(res.Stages), len(core.StageNames()))
	}
}

// TestFrontMemoConcurrent compiles the whole suite from 8 goroutines
// over 4 targets, starting from a cleared memo, and checks every result
// against a serial compile.
func TestFrontMemoConcurrent(t *testing.T) {
	targets := []string{"scalar", "dspasip", "wide2", "wide8"}
	kernels := bench.Kernels()
	want := map[string]string{}
	for _, k := range kernels {
		for _, name := range targets {
			for _, shape := range memoShapes[:2] {
				want[k.Name+"/"+name+"/"+shape.name] = fingerprint(compileKernel(t, k, shape.cfg(pdesc.Builtin(name))))
			}
		}
	}

	core.ResetMemos()
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(want))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range targets {
				name := targets[(g+i)%len(targets)]
				for _, k := range kernels {
					for _, shape := range memoShapes[:2] {
						cfg := shape.cfg(pdesc.Builtin(name))
						cfg.EmitC = true
						res, err := core.Compile(k.Source, k.Entry, k.Params, cfg)
						id := k.Name + "/" + name + "/" + shape.name
						switch {
						case err != nil:
							errs <- fmt.Errorf("%s: %v", id, err)
						case fingerprint(res) != want[id]:
							errs <- fmt.Errorf("%s: concurrent compile differs from serial", id)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFrontMemoErrors: failing front halves are never memoized, so the
// same error comes back every time.
func TestFrontMemoErrors(t *testing.T) {
	cfg := core.Proposed(pdesc.Builtin("dspasip"))
	for _, src := range []string{
		"function (",                          // parse error
		"function y = f()\ny = nope(3);\nend", // sema error
	} {
		core.ResetMemos()
		_, err1 := core.Compile(src, "f", nil, cfg)
		_, err2 := core.Compile(src, "f", nil, cfg)
		if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
			t.Errorf("%q: errors %v then %v, want the same error twice", src, err1, err2)
		}
		if n := core.FrontMemoLen(); n != 0 {
			t.Errorf("%q: failed compile left %d memo entries", src, n)
		}
	}
}

// TestFrontMemoHitCancelled: a memo hit still honours cancellation.
func TestFrontMemoHitCancelled(t *testing.T) {
	k := bench.KernelByName("fir")
	cfg := core.Proposed(pdesc.Builtin("dspasip"))
	core.ResetMemos()
	compileKernel(t, k, cfg)
	if core.FrontMemoFunc(k.Source, k.Entry, k.Params, cfg) == nil {
		t.Fatal("front half not memoized")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.CompileContext(ctx, k.Source, k.Entry, k.Params, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled memo hit returned %v, want context.Canceled", err)
	}
}

// memoSiblings derives two clones of dspasip: one differing only in
// its cycle costs, one only in name and description.
func memoSiblings(t *testing.T) (base, costs, renamed *pdesc.Processor) {
	t.Helper()
	base = pdesc.Builtin("dspasip")
	costs, err := base.Derive(base.Name, func(q *pdesc.Processor) {
		if q.Costs == nil {
			q.Costs = map[string]int{}
		}
		q.Costs["load"] = 1
		q.Costs["vop"] = 5
		q.Costs["branch"] = 7
	})
	if err != nil {
		t.Fatal(err)
	}
	renamed, err = base.Derive("dspasip-renamed", func(q *pdesc.Processor) {
		q.Description = "dspasip under another name"
	})
	if err != nil {
		t.Fatal(err)
	}
	return base, costs, renamed
}

// decimKernel reads a float and a complex operand at stride 2, in
// separate loops, which the vectorizer widens only through the strided
// loads vlds and vclds. No suite kernel does, so without it no compile
// would ask for them.
var decimKernel = &bench.Kernel{
	Name:  "decim",
	Entry: "decim",
	Source: `function [y, w] = decim(x, z)
n = floor(numel(x) / 2);
y = zeros(1, n);
w = complex(zeros(1, n), zeros(1, n));
for i = 1:n
  y(i) = x(2*i) * 2 + 1;
end
for i = 1:n
  w(i) = z(2*i) * 3;
end
end`,
	Params: []sema.Type{
		{Class: sema.Real, Shape: sema.Shape{Rows: 1, Cols: sema.DimUnknown}},
		{Class: sema.Complex, Shape: sema.Shape{Rows: 1, Cols: sema.DimUnknown}},
	},
}

// memoKernels is the suite plus decimKernel.
func memoKernels() []*bench.Kernel { return append(bench.Kernels(), decimKernel) }

// memoTargets returns every variant of the default DSE enumeration and
// dspasip extended with the instructions the isx miner finds on it:
// processors that share lane counts but differ in instruction groups,
// in complex lanes at one width, and in pattern-defined instructions.
func memoTargets(t *testing.T) []*pdesc.Processor {
	t.Helper()
	variants, err := (&dse.Sweep{}).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var out []*pdesc.Processor
	for _, v := range variants {
		out = append(out, v.Proc)
	}
	base := pdesc.Builtin("dspasip")
	rep, err := isx.Mine(base, isx.Options{NoVerify: true, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) == 0 {
		t.Fatal("the isx miner found no candidates on dspasip")
	}
	ext, err := isx.Extend(base, "dspasip+isx", rep.Candidates...)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, ext)
}

// TestBackMemoEquivalence: for every kernel and pipeline shape, with C
// output on and off, a compile served by the back-half memo equals one
// made with the back-half memo cleared. The targets are clones of
// dspasip that differ only in Costs (always a hit after dspasip) or
// only in Name and Description (a hit without C; with C it must miss,
// since cgen prints the target's name into the header), then every
// memoTargets processor in turn, on a memo filled by the ones before.
func TestBackMemoEquivalence(t *testing.T) {
	base, costs, renamed := memoSiblings(t)
	targets := append([]*pdesc.Processor{base, costs, renamed}, memoTargets(t)...)
	var hits, misses uint64
	for _, k := range memoKernels() {
		for _, shape := range memoShapes {
			for _, emitC := range []bool{false, true} {
				cfgFor := func(p *pdesc.Processor) core.Config {
					c := shape.cfg(p)
					c.EmitC = emitC
					return c
				}
				compile := func(p *pdesc.Processor) *core.Result {
					res, err := core.Compile(k.Source, k.Entry, k.Params, cfgFor(p))
					if err != nil {
						t.Fatalf("%s/%s on %s: %v", k.Name, shape.name, p.Name, err)
					}
					return res
				}
				core.ResetMemos()
				cold := make([]string, len(targets))
				for i, p := range targets {
					core.ClearBackMemo()
					cold[i] = fingerprint(compile(p))
				}
				core.ResetMemos()
				for i, p := range targets {
					id := fmt.Sprintf("%s/%s emitC=%v on %s", k.Name, shape.name, emitC, p.Name)
					before := core.MemoStats().Back
					res := compile(p)
					hit := core.MemoStats().Back.Hits > before.Hits
					switch {
					case emitC:
					case hit:
						hits++
					default:
						misses++
					}
					if hit {
						for _, st := range res.Stages {
							if st.Duration != 0 {
								t.Errorf("%s: back-memo hit reports %v for %s, want 0", id, st.Duration, st.Stage)
							}
						}
					}
					if want := p == costs || p == renamed && !emitC; i < 3 && hit != want {
						t.Errorf("%s: back-memo hit %v, want %v", id, hit, want)
					}
					if len(res.Stages) != len(core.StageNames()) {
						t.Errorf("%s: %d stages, want %d", id, len(res.Stages), len(core.StageNames()))
					}
					if res.Processor() != p {
						t.Errorf("%s: result reports processor %s", id, res.Processor().Name)
					}
					if got := fingerprint(res); got != cold[i] {
						t.Fatalf("%s: differs from a compile with the back-half memo cleared\n got: %s\nwant: %s", id, got, cold[i])
					}
					if emitC && p == renamed && !strings.Contains(res.CHeader, `"`+renamed.Name+`"`) {
						t.Errorf("%s: header does not name the renamed target:\n%s", id, res.CHeader)
					}
				}
			}
		}
	}
	// Without C most compiles are hits: variants of one lane
	// configuration differ mostly in groups a kernel never asks about.
	if hits <= misses {
		t.Errorf("without C: %d back-memo hits against %d misses, want mostly hits", hits, misses)
	}
}

// TestMemoHitsCancelled: a cancelled context fails a compile served by
// the back-half memo (a cost sibling) and one served by the front-half
// memo only (another target), and neither leaves anything behind.
func TestMemoHitsCancelled(t *testing.T) {
	k := bench.KernelByName("fir")
	base, costs, _ := memoSiblings(t)
	core.ResetMemos()
	compileKernel(t, k, core.Proposed(base))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []*pdesc.Processor{costs, pdesc.Builtin("wide8")} {
		cfg := core.Proposed(p)
		cfg.EmitC = true
		if _, err := core.CompileContext(ctx, k.Source, k.Entry, k.Params, cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled compile on %s returned %v, want context.Canceled", p.Name, err)
		}
	}
	st := core.MemoStats()
	if st.Back.Hits != 1 || st.Back.Entries != 1 || st.Front.Hits != 1 {
		t.Errorf("memo stats %+v, want one back hit, one front hit and only the first compile stored", st)
	}
}

// TestBackMemoErrors: failed compiles are never memoized by either memo.
func TestBackMemoErrors(t *testing.T) {
	core.ResetMemos()
	cfg := core.Proposed(pdesc.Builtin("dspasip"))
	for i := 0; i < 2; i++ {
		if _, err := core.Compile("function y = f()\ny = nope(3);\nend", "f", nil, cfg); err == nil {
			t.Fatal("bad program compiled")
		}
	}
	st := core.MemoStats()
	if st.Back.Entries != 0 || st.Back.Hits != 0 || st.Back.Misses != 2 || st.Front.Entries != 0 {
		t.Errorf("memo stats after two failed compiles: %+v", st)
	}
}

// fuzzSemantics are the behaviours a fuzzed target's pattern-defined
// instruction draws from, float and complex.
var fuzzSemantics = []string{
	"float:mul(p0,p1)",
	"float:add(p0,mul(p1,p1))",
	"float:sub(mul(p0,p1),p2)",
	"float:abs(p0)",
	"complex:sub(p0,conj(p1))",
	"complex:add(p0,mul(p1,p2))",
}

// fuzzWidths is the SIMD width a fuzzed target draws.
var fuzzWidths = []int{1, 2, 4, 8}

// fuzzMemoTarget derives a random valid target from dspasip: a SIMD
// width, a complex lane count up to half of it, a random subset of
// dspasip's custom instructions (vector forms only on a vector
// datapath), random cycle costs, and, half the time, one
// pattern-defined instruction with its vector form when the width
// allows. The width and the complex lane count are each lanes' with
// probability 3/4, so most targets of one seed share a shape key and
// differ only in the instructions they declare, and the rest differ
// in one lane count or both.
func fuzzMemoTarget(r *rand.Rand, name string, lanes [2]int) (*pdesc.Processor, error) {
	base := pdesc.Builtin("dspasip")
	return base.Derive(name, func(q *pdesc.Processor) {
		w, cl := lanes[0], lanes[1]
		if r.Intn(4) == 0 {
			w = fuzzWidths[r.Intn(len(fuzzWidths))]
		}
		if r.Intn(4) == 0 || cl > w/2 {
			cl = r.Intn(w/2 + 1)
		}
		q.SIMDWidth, q.ComplexLanes = w, cl
		q.Costs = map[string]int{"load": 1 + r.Intn(3), "vop": 1 + r.Intn(3)}
		var instrs []pdesc.Instr
		for _, in := range base.Instructions {
			if r.Intn(2) == 0 && (q.SIMDWidth > 1 || !strings.HasPrefix(in.Name, "v")) {
				instrs = append(instrs, in)
			}
		}
		if r.Intn(2) == 0 {
			sem := fuzzSemantics[r.Intn(len(fuzzSemantics))]
			instrs = append(instrs, pdesc.Instr{Name: "isx0", CName: "_isx0", Cycles: 1, Semantics: sem})
			if q.SIMDWidth > 1 && r.Intn(2) == 0 {
				instrs = append(instrs, pdesc.Instr{Name: "visx0", CName: "_visx0", Cycles: 1, Semantics: sem})
			}
		}
		q.Instructions = instrs
	})
}

// FuzzBackMemo: from a seed, derive random targets (fuzzMemoTarget),
// prime the back-half memo with some of them, then compile on the
// others; every compile must equal one made with the back-half memo
// cleared.
func FuzzBackMemo(f *testing.F) {
	for seed := uint64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	kernels := memoKernels()
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rand.New(rand.NewSource(int64(seed)))
		k := kernels[r.Intn(len(kernels))]
		shape := memoShapes[r.Intn(len(memoShapes))]
		cfgFor := func(p *pdesc.Processor) core.Config {
			c := shape.cfg(p)
			c.EmitC = r.Intn(4) == 0
			return c
		}
		w := fuzzWidths[r.Intn(len(fuzzWidths))]
		lanes := [2]int{w, r.Intn(w/2 + 1)}
		n := 3 + r.Intn(6)
		targets := make([]*pdesc.Processor, n)
		cfgs := make([]core.Config, n)
		for i := range targets {
			p, err := fuzzMemoTarget(r, fmt.Sprintf("fuzz%d", i), lanes)
			if err != nil {
				t.Fatalf("seed %d: target %d: %v", seed, i, err)
			}
			targets[i], cfgs[i] = p, cfgFor(p)
		}
		compile := func(i int) string {
			res, err := core.Compile(k.Source, k.Entry, k.Params, cfgs[i])
			if err != nil {
				t.Fatalf("seed %d: %s/%s on %+v: %v", seed, k.Name, shape.name, targets[i], err)
			}
			return fingerprint(res)
		}
		core.ResetMemos()
		cold := make([]string, n)
		for i := range targets {
			core.ClearBackMemo()
			cold[i] = compile(i)
		}
		core.ResetMemos()
		primed := 1 + r.Intn(n-1)
		for i := 0; i < primed; i++ {
			compile(i)
		}
		for i := primed; i < n; i++ {
			if got := compile(i); got != cold[i] {
				t.Fatalf("seed %d: %s/%s emitC=%v on %+v after priming with %d targets:\n got: %s\nwant: %s",
					seed, k.Name, shape.name, cfgs[i].EmitC, targets[i], primed, got, cold[i])
			}
		}
	})
}
