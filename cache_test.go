package mat2c

import (
	"context"
	"fmt"
	"testing"

	"mat2c/internal/core"
)

const cacheTestSrc = `function y = scale(x, a)
y = a .* x + 1;
end`

var cacheTestParams = []Type{Vector(Real), Scalar(Real)}

func TestCompileCachedHitReturnsSameArtifact(t *testing.T) {
	c := NewCache(8)
	opts := Options{Target: "dspasip"}

	r1, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first compile reported hit")
	}
	r2, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second identical compile missed")
	}
	if r1 != r2 {
		t.Error("hit did not return the shared cached Result")
	}
	if r1.CSource() != r2.CSource() {
		t.Error("artifacts differ")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// The cached result still runs correctly.
	out, _, err := r2.Run(NewVector(1, 2), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if a := out[0].(*Array); a.F[0] != 3 || a.F[1] != 5 {
		t.Errorf("cached result computed %v", a.F)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base, err := CacheKey(cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip"})
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func() (string, error){
		"source": func() (string, error) {
			return CacheKey(cacheTestSrc+" ", "scale", cacheTestParams, Options{Target: "dspasip"})
		},
		"params": func() (string, error) {
			return CacheKey(cacheTestSrc, "scale", []Type{Vector(Complex), Scalar(Real)}, Options{Target: "dspasip"})
		},
		"target": func() (string, error) {
			return CacheKey(cacheTestSrc, "scale", cacheTestParams, Options{Target: "wide8"})
		},
		"pipeline": func() (string, error) {
			return CacheKey(cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip", NoVectorize: true})
		},
		"baseline": func() (string, error) {
			return CacheKey(cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip", Baseline: true})
		},
		"skipc": func() (string, error) {
			return CacheKey(cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip", SkipC: true})
		},
	}
	for name, fn := range variants {
		k, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == base {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}

	// There is one optimization level: a higher one compiles, and so
	// keys, as the default does.
	if k, err := CacheKey(cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip", OptLevel: 2}); err != nil || k != base {
		t.Errorf("OptLevel 2 keyed apart from the default (err %v)", err)
	}
	if k, _ := CacheKey(cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip", OptLevel: -1}); k == base {
		t.Error("disabling the optimizer did not change the cache key")
	}

	// Entry "" resolves to the first function; the key must be stable
	// regardless of spelling it out.
	k1, _ := CacheKey(cacheTestSrc, "", cacheTestParams, Options{Target: "dspasip"})
	k2, _ := CacheKey(cacheTestSrc, "", cacheTestParams, Options{Target: "dspasip"})
	if k1 != k2 {
		t.Error("identical inputs produced different keys")
	}
}

// TestCompileKey: a key from Keys looks up and compiles its own
// inputs, sharing the cache entry CompileCached makes for them; a Key
// that Keys did not make is refused.
func TestCompileKey(t *testing.T) {
	opts := Options{Target: "dspasip"}
	keys, err := Keys(opts, Input{Source: cacheTestSrc, Entry: "scale", Params: cacheTestParams})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(4)
	first, hit, err := CompileKey(context.Background(), c, keys[0])
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	again, hit, err := CompileCached(c, cacheTestSrc, "scale", cacheTestParams, opts)
	if err != nil || !hit || again != first {
		t.Fatalf("CompileCached after CompileKey: hit=%v same=%v err=%v", hit, again == first, err)
	}
	if _, _, err := CompileKey(context.Background(), c, Key{}); err == nil {
		t.Error("a zero Key was looked up")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf("function y = f(x)\ny = x + %d;\nend", i)
		if _, _, err := CompileCached(c, src, "f", []Type{Scalar(Real)}, Options{Target: "scalar", SkipC: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2 (bounded)", st.Entries)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}

	// Most recent entries are retained, oldest were evicted.
	if _, hit, _ := CompileCached(c, "function y = f(x)\ny = x + 3;\nend", "f", []Type{Scalar(Real)}, Options{Target: "scalar", SkipC: true}); !hit {
		t.Error("most recent entry was evicted")
	}
	if _, hit, _ := CompileCached(c, "function y = f(x)\ny = x + 0;\nend", "f", []Type{Scalar(Real)}, Options{Target: "scalar", SkipC: true}); hit {
		t.Error("oldest entry survived a full eviction cycle")
	}
}

func TestCompileCachedNilCache(t *testing.T) {
	res, hit, err := CompileCached(nil, cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip", SkipC: true})
	if err != nil {
		t.Fatal(err)
	}
	if hit || res == nil {
		t.Errorf("nil cache: hit=%v res=%v", hit, res)
	}
}

func TestCompileCachedErrorNotCached(t *testing.T) {
	c := NewCache(4)
	if _, _, err := CompileCached(c, "function y = f(x)\ny = ((x;\nend", "f", []Type{Scalar(Real)}, Options{Target: "scalar"}); err == nil {
		t.Fatal("bad program compiled")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Errorf("failed compile left %d cache entries", st.Entries)
	}
}

func TestStageTimingsRecorded(t *testing.T) {
	// Time a cold compile: one served whole by the back-half memo
	// (an earlier test compiled the same input) reports zero stages.
	core.ResetMemos()
	res, err := Compile(cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip"})
	if err != nil {
		t.Fatal(err)
	}
	stages := res.StageTimings()
	names := StageNames()
	if len(stages) != len(names) {
		t.Fatalf("got %d stage timings, want %d", len(stages), len(names))
	}
	var total int64
	for i, st := range stages {
		if st.Stage != names[i] {
			t.Errorf("stage %d = %q, want %q (pipeline order)", i, st.Stage, names[i])
		}
		if st.Duration < 0 {
			t.Errorf("stage %s has negative duration", st.Stage)
		}
		total += st.Duration.Nanoseconds()
	}
	if total <= 0 {
		t.Error("all stage durations are zero")
	}

	// SkipC leaves the cgen stage at zero.
	res, err = Compile(cacheTestSrc, "scale", cacheTestParams, Options{Target: "dspasip", SkipC: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.StageTimings() {
		if st.Stage == "cgen" && st.Duration != 0 {
			t.Errorf("cgen ran (%v) despite SkipC", st.Duration)
		}
	}
}
