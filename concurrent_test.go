package mat2c

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentCompileIdenticalArtifacts compiles the same programs
// from many goroutines across several targets, with and without the
// cache, and asserts every goroutine observes byte-identical artifacts
// per (program, target). Designed to run under -race: it exercises the
// pdesc resolution cache, the shared built-in catalog, the compilation
// cache, and concurrent simulator runs over a shared Result.
func TestConcurrentCompileIdenticalArtifacts(t *testing.T) {
	programs := []struct {
		name, src, params string
	}{
		{"scale", "function y = scale(x, a)\ny = a .* x + 1;\nend", "real(1,:), real"},
		{"dot", "function s = dot(a, b)\ns = sum(a .* b);\nend", "real(1,:), real(1,:)"},
		{"cmag", "function m = cmag(z)\nm = real(z) .* real(z) + imag(z) .* imag(z);\nend", "complex(1,:)"},
	}
	targets := []string{"dspasip", "scalar", "wide2", "wide8", "nocomplex", "nosimd"}

	type key struct{ prog, target string }
	want := map[key]string{}
	for _, p := range programs {
		types, err := ParseTypes(p.params)
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range targets {
			res, err := Compile(p.src, p.name, types, Options{Target: tgt})
			if err != nil {
				t.Fatalf("%s on %s: %v", p.name, tgt, err)
			}
			want[key{p.name, tgt}] = res.CSource() + "\x00" + res.CHeader() + "\x00" + res.IRText()
		}
	}

	cache := NewCache(64)
	const workers = 24
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				p := programs[(w+i)%len(programs)]
				tgt := targets[(w*3+i)%len(targets)]
				types, err := ParseTypes(p.params)
				if err != nil {
					errs <- err
					return
				}
				var res *Result
				if (w+i)%2 == 0 {
					res, _, err = CompileCached(cache, p.src, p.name, types, Options{Target: tgt})
				} else {
					res, err = Compile(p.src, p.name, types, Options{Target: tgt})
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d: %s on %s: %w", w, p.name, tgt, err)
					return
				}
				got := res.CSource() + "\x00" + res.CHeader() + "\x00" + res.IRText()
				if got != want[key{p.name, tgt}] {
					errs <- fmt.Errorf("worker %d: %s on %s: artifact differs from sequential compile", w, p.name, tgt)
					return
				}
				// Shared cached Results must support concurrent Run.
				if p.name == "scale" {
					out, _, err := res.Run(NewVector(1, 2, 3), 2.0)
					if err != nil {
						errs <- fmt.Errorf("worker %d: run: %w", w, err)
						return
					}
					if a := out[0].(*Array); a.F[2] != 7 {
						errs <- fmt.Errorf("worker %d: run computed %v", w, a.F)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := cache.Stats()
	if st.Hits == 0 {
		t.Error("concurrent cached compiles recorded no hits")
	}
}

// TestConcurrentLoadProcessor hammers the named-target resolution cache
// from many goroutines (run under -race) and checks every caller sees
// one shared, consistent description per name.
func TestConcurrentLoadProcessor(t *testing.T) {
	names := Targets()
	const workers = 16
	var wg sync.WaitGroup
	procs := make([][]*Processor, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			procs[w] = make([]*Processor, len(names))
			for i, name := range names {
				p, err := LoadProcessor(name)
				if err != nil {
					t.Errorf("worker %d: %s: %v", w, name, err)
					return
				}
				if p.Name != name {
					t.Errorf("worker %d: resolved %q, got %q", w, name, p.Name)
				}
				// Exercise instruction lookups concurrently.
				p.HasInstr("fma")
				procs[w][i] = p
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range names {
			if procs[w] == nil || procs[0] == nil {
				continue
			}
			if procs[w][i] != procs[0][i] {
				t.Errorf("%s: goroutines observed different Processor pointers", names[i])
			}
		}
	}
}

// TestConcurrentSiblingsShareOneBlob restores cost siblings — keys that
// compile to one program — from a disk tier on 8 goroutines at once
// (run under -race). Their names differ, which their C prints, so each
// has a trie path of its own, but their leaves name one program blob:
// it must be decoded once, every goroutine must get the same
// *vm.Program, and every restored result must run correctly under its
// own processor.
func TestConcurrentSiblingsShareOneBlob(t *testing.T) {
	const workers = 8
	base, err := LoadProcessor("dspasip")
	if err != nil {
		t.Fatal(err)
	}
	opts := make([]Options, workers)
	for w := range opts {
		p, err := base.Derive(fmt.Sprintf("dspasip-cost%d", w), func(p *Processor) {
			p.Costs = map[string]int{"fmul": 1 + w, "load": 1 + w%3}
		})
		if err != nil {
			t.Fatal(err)
		}
		opts[w] = Options{Processor: p}
	}
	dir := t.TempDir()
	store := openTestStore(t, dir)
	warm := NewCache(workers)
	warm.SetStore(store)
	want := make([]*Result, workers)
	for w := range opts {
		if want[w], _, err = CompileCached(warm, cacheTestSrc, "scale", cacheTestParams, opts[w]); err != nil {
			t.Fatal(err)
		}
	}
	warm.Flush()
	nodes := len(want[0].res.Queries) + 1
	if n, err := store.Len(); err != nil || n != workers*nodes+1 {
		t.Fatalf("store holds %d entries (%v), want %d paths of %d nodes and 1 blob", n, err, workers, nodes)
	}

	c := NewCache(workers)
	c.SetStore(openTestStore(t, dir))
	got := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts[w])
			if err != nil || !hit {
				t.Errorf("worker %d: hit=%v err=%v, want a disk hit", w, hit, err)
				return
			}
			got[w] = res
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := c.Stats()
	if st.DiskHits != workers || st.Compiles != 0 || st.BlobDecodes != 1 || st.ProgramHits != workers-1 {
		t.Errorf("stats = %+v, want %d disk hits, 1 blob decode and %d program hits", st, workers, workers-1)
	}
	for w, res := range got {
		if res.Program() != got[0].Program() {
			t.Errorf("worker %d restored its own copy of the shared program", w)
		}
		if res.CSource() != want[w].CSource() {
			t.Errorf("worker %d: restored C source differs from its compile", w)
		}
		_, cycles, err := res.Run(NewVector(1, 2, 3), 2.0)
		if err != nil {
			t.Fatalf("worker %d: run: %v", w, err)
		}
		if _, wantCycles, _ := want[w].Run(NewVector(1, 2, 3), 2.0); cycles != wantCycles {
			t.Errorf("worker %d: %d cycles restored, %d compiled", w, cycles, wantCycles)
		}
	}
}
