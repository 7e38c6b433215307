package mat2c_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/pdesc"
)

// trieSemantics are the behaviours a fuzzed target's pattern-defined
// instruction draws from, float and complex.
var trieSemantics = []string{
	"float:mul(p0,p1)",
	"float:add(p0,mul(p1,p1))",
	"float:sub(mul(p0,p1),p2)",
	"complex:add(p0,mul(p1,p2))",
}

// trieWidths is the SIMD width a fuzzed target draws.
var trieWidths = []int{1, 2, 4, 8}

// trieTarget derives a random valid target from dspasip, as
// FuzzBackMemo's do: the width and complex lane count are lanes' with
// probability 3/4, the custom instructions a random subset of
// dspasip's, the costs random, and half the time there is a
// pattern-defined instruction "isx0" (with its vector form when the
// width allows) of random semantics. The name is dspasip's when C is
// emitted, so targets can share trie paths with C output too.
func trieTarget(r *rand.Rand, name string, lanes [2]int) (*pdesc.Processor, error) {
	base := pdesc.Builtin("dspasip")
	return base.Derive(name, func(q *pdesc.Processor) {
		w, cl := lanes[0], lanes[1]
		if r.Intn(4) == 0 {
			w = trieWidths[r.Intn(len(trieWidths))]
		}
		if r.Intn(4) == 0 || cl > w/2 {
			cl = r.Intn(w/2 + 1)
		}
		q.SIMDWidth, q.ComplexLanes = w, cl
		q.Costs = map[string]int{"load": 1 + r.Intn(3), "vop": 1 + r.Intn(3)}
		var instrs []pdesc.Instr
		for _, in := range base.Instructions {
			if r.Intn(2) == 0 && (w > 1 || !strings.HasPrefix(in.Name, "v")) {
				instrs = append(instrs, in)
			}
		}
		if r.Intn(2) == 0 {
			sem := trieSemantics[r.Intn(len(trieSemantics))]
			instrs = append(instrs, pdesc.Instr{Name: "isx0", CName: "_isx0", Cycles: 1, Semantics: sem})
			if w > 1 && r.Intn(2) == 0 {
				instrs = append(instrs, pdesc.Instr{Name: "visx0", CName: "_visx0", Cycles: 1, Semantics: sem})
			}
		}
		q.Instructions = instrs
	})
}

// trieFingerprint renders what a lookup serves of a compile, and the
// cycles of a run on a small input, which its processor prices.
func trieFingerprint(k *bench.Kernel, res *mat2c.Result) (string, error) {
	_, cycles, err := res.Run(bench.CloneArgs(k.Inputs(bench.SizeFor(k, 0.05)))...)
	if err != nil {
		return "", fmt.Errorf("%s on %s: run: %v", k.Name, res.Processor().Name, err)
	}
	return fmt.Sprintf("prog %s size %d vec %d intr %v cycles %d\n--c--\n%s\n--h--\n%s\n--proto--\n%s\nwarnings %q",
		res.Program().ContentHash(), res.CodeSize(), res.VectorizedLoops(), res.SelectedIntrinsics(), cycles,
		res.CSource(), res.CHeader(), res.CPrototype(), res.Warnings()), nil
}

// openTrieStore opens the disk store over dir, closed when t ends.
func openTrieStore(t *testing.T, dir string) *artifact.DiskStore {
	t.Helper()
	s, err := artifact.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// FuzzTrieStore is FuzzBackMemo's store-backed twin. From a seed it
// derives random targets (trieTarget, on one kernel and one pipeline,
// with C output a quarter of the time), primes a disk store with the
// compiles of some of them through one cache, then looks every target
// up through a fresh cache over the store, with the compile memos
// cleared, from two goroutines at once, one walking the targets
// forward and one backward, so their lookups meet on the store and the
// trie. Every result, restored or compiled, must equal a cold compile
// of its target; and a third cache over the store, memos cleared
// again, restores every target without compiling.
func FuzzTrieStore(f *testing.F) {
	for seed := uint64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	kernels := bench.Kernels()
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rand.New(rand.NewSource(int64(seed)))
		k := kernels[r.Intn(len(kernels))]
		skipC := r.Intn(4) != 0
		baseline := r.Intn(5) == 0
		w := trieWidths[r.Intn(len(trieWidths))]
		lanes := [2]int{w, r.Intn(w/2 + 1)}
		n := 3 + r.Intn(6)
		opts := make([]mat2c.Options, n)
		for i := range opts {
			name := "dspasip"
			if skipC {
				name = fmt.Sprintf("fuzz%d", i)
			}
			p, err := trieTarget(r, name, lanes)
			if err != nil {
				t.Fatalf("seed %d: target %d: %v", seed, i, err)
			}
			opts[i] = mat2c.Options{Processor: p, SkipC: skipC, Baseline: baseline}
		}
		// lookup returns the fingerprint of target i's compile looked up
		// through c, whether it hit, and any failure, which ends the seed.
		lookup := func(c *mat2c.Cache, i int) (string, bool, error) {
			res, hit, err := mat2c.CompileCached(c, k.Source, k.Entry, k.Params, opts[i])
			if err != nil {
				return "", false, fmt.Errorf("seed %d: %s on target %d: %v", seed, k.Name, i, err)
			}
			fp, err := trieFingerprint(k, res)
			return fp, hit, err
		}
		cold := make([]string, n)
		for i := range opts {
			core.ResetMemos()
			var err error
			if cold[i], _, err = lookup(nil, i); err != nil {
				t.Fatal(err)
			}
		}

		dir := t.TempDir()
		core.ResetMemos()
		primer := mat2c.NewCache(n)
		primer.SetStore(openTrieStore(t, dir))
		primed := 1 + r.Intn(n-1)
		for i := 0; i < primed; i++ {
			if _, _, err := lookup(primer, i); err != nil {
				t.Fatal(err)
			}
		}
		primer.Flush()

		core.ResetMemos()
		c := mat2c.NewCache(n)
		c.SetStore(openTrieStore(t, dir))
		var wg sync.WaitGroup
		var mu sync.Mutex
		var failures []string
		for _, backward := range []bool{false, true} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < n; j++ {
					i := j
					if backward {
						i = n - 1 - j
					}
					got, _, err := lookup(c, i)
					if err == nil && got != cold[i] {
						err = fmt.Errorf("target %d %+v:\n got: %s\nwant: %s", i, opts[i].Processor, got, cold[i])
					}
					if err != nil {
						mu.Lock()
						failures = append(failures, err.Error())
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		c.Flush()
		if len(failures) > 0 {
			t.Fatalf("seed %d: %s (skipC %v, baseline %v) after priming with %d of %d targets: %s",
				seed, k.Name, skipC, baseline, primed, n, failures[0])
		}
		if st := c.Stats(); st.Misses != st.Compiles+st.DiskHits+st.RemoteHits+st.FlightWaits {
			t.Fatalf("seed %d: miss invariant violated: %+v", seed, st)
		}

		core.ResetMemos()
		warm := mat2c.NewCache(n)
		warm.SetStore(openTrieStore(t, dir))
		for i := range opts {
			if got, hit, err := lookup(warm, i); err != nil || !hit || got != cold[i] {
				t.Fatalf("seed %d: warm lookup of target %d: hit=%v err=%v, or it differs from its cold compile", seed, i, hit, err)
			}
		}
		if st := warm.Stats(); st.Compiles != 0 {
			t.Fatalf("seed %d: the filled store left %d compiles", seed, st.Compiles)
		}
	})
}
