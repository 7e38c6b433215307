package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
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

// TestBackMemoEquivalence: for every kernel and pipeline shape, with C
// output on and off, a compile on a clone of dspasip that differs only
// in Costs (or only in Name and Description) equals a compile with both
// memos cleared. The cost clone is always served by the back-half memo;
// the renamed clone is too without C, but with C it must miss, since
// cgen prints the target's name into the header.
func TestBackMemoEquivalence(t *testing.T) {
	base, costs, renamed := memoSiblings(t)
	for _, k := range bench.Kernels() {
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
				cold := map[*pdesc.Processor]string{}
				for _, p := range []*pdesc.Processor{base, costs, renamed} {
					core.ResetMemos()
					cold[p] = fingerprint(compile(p))
				}
				core.ResetMemos()
				compile(base)
				for _, p := range []*pdesc.Processor{costs, renamed} {
					id := fmt.Sprintf("%s/%s emitC=%v on %s", k.Name, shape.name, emitC, p.Name)
					before := core.MemoStats().Back
					res := compile(p)
					hit := core.MemoStats().Back.Hits > before.Hits
					if want := p == costs || !emitC; hit != want {
						t.Errorf("%s: back-memo hit %v, want %v", id, hit, want)
					}
					if hit {
						for _, st := range res.Stages {
							if st.Duration != 0 {
								t.Errorf("%s: back-memo hit reports %v for %s, want 0", id, st.Duration, st.Stage)
							}
						}
					}
					if len(res.Stages) != len(core.StageNames()) {
						t.Errorf("%s: %d stages, want %d", id, len(res.Stages), len(core.StageNames()))
					}
					if res.Processor() != p {
						t.Errorf("%s: result reports processor %s", id, res.Processor().Name)
					}
					if got := fingerprint(res); got != cold[p] {
						t.Errorf("%s: differs from a cleared-memo compile\n got: %s\nwant: %s", id, got, cold[p])
					}
					if emitC && p == renamed && !strings.Contains(res.CHeader, `"`+renamed.Name+`"`) {
						t.Errorf("%s: header does not name the renamed target:\n%s", id, res.CHeader)
					}
				}
			}
		}
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
