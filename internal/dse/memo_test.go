package dse

import (
	"context"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/core"
)

// TestCostSiblingsShareOneCompile: on a two-cost-set sweep at Jobs 2,
// the back-half memo misses exactly once per distinct back-half input
// (the same sweep's variants without the cost axis, times the kernels)
// and serves every cost sibling's compiles. Siblings run back to back
// on one worker; fed to the pool one by one, two workers would compile
// the same input at the same time and both miss.
func TestCostSiblingsShareOneCompile(t *testing.T) {
	sw, err := ParseSweep([]byte(e2eShapedSpec))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	variants, _, err := EnumerateAll(ctx, []*Sweep{sw})
	if err != nil {
		t.Fatal(err)
	}
	costFree, _, err := EnumerateAll(ctx, []*Sweep{{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 2*len(costFree) {
		t.Fatalf("%d variants over two cost sets, want %d", len(variants), 2*len(costFree))
	}
	kernels := len(bench.Kernels())
	core.ResetMemos()
	rep, err := ExploreSweep(sw, Options{Jobs: 2, Scale: 0.05, Cache: mat2c.NewCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 {
		t.Fatalf("%d cache hits on a private cache, want 0", rep.CacheHits)
	}
	back := core.MemoStats().Back
	if want := uint64(len(costFree) * kernels); back.Misses != want || back.Hits != want {
		t.Errorf("back-half memo %d misses / %d hits, want %d / %d (one compile per distinct back-half input)",
			back.Misses, back.Hits, want, want)
	}
}
