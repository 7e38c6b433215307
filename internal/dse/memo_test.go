package dse

import (
	"context"
	"reflect"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/core"
)

// e2eAnswerSets is the number of distinct back-half inputs the
// e2e-shaped sweep gives the kernel suite: pairs of a shape key (kernel,
// lane counts, pattern list) and the answers to every HasInstr query
// the kernel's vectorize and isel runs make there. It is far below the
// sweep's cost-free variants times kernels, because most kernels never
// ask about most instruction groups. Measured; a change here means the
// compiler asks different questions or the memo keys differently.
const e2eAnswerSets = 108

// TestCostSiblingsShareOneCompile: on a two-cost-set sweep the back-half
// memo compiles once per distinct answer set. At Jobs 1 the misses are
// exactly e2eAnswerSets and every other compile, cost siblings included,
// is a hit. At Jobs 2 the report is identical to the Jobs 1 report; two
// workers may compile one answer set at the same time and both miss, so
// the misses lie between e2eAnswerSets and the cost-free back halves.
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
	compiles := uint64(len(variants) * kernels)
	explore := func(jobs int) (*Report, core.BackMemoInfo) {
		core.ResetMemos()
		rep, err := ExploreSweep(sw, Options{Jobs: jobs, Scale: 0.05, Cache: mat2c.NewCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHits != 0 {
			t.Fatalf("jobs %d: %d cache hits on a private cache, want 0", jobs, rep.CacheHits)
		}
		back := core.MemoStats().Back
		if back.Hits+back.Misses != compiles {
			t.Errorf("jobs %d: %d back-memo lookups, want %d", jobs, back.Hits+back.Misses, compiles)
		}
		rep.ElapsedUS, rep.Jobs = 0, 0
		return rep, back
	}

	serial, back := explore(1)
	if back.Misses != e2eAnswerSets {
		t.Errorf("jobs 1: back-half memo %d misses / %d hits, want %d misses (one compile per distinct answer set)",
			back.Misses, back.Hits, e2eAnswerSets)
	}
	if back.Entries != e2eAnswerSets {
		t.Errorf("jobs 1: back-half memo stores %d compiles, want %d", back.Entries, e2eAnswerSets)
	}
	pooled, back := explore(2)
	if back.Misses < e2eAnswerSets || back.Misses > uint64(len(costFree)*kernels) {
		t.Errorf("jobs 2: back-half memo %d misses, want %d to %d", back.Misses, e2eAnswerSets, len(costFree)*kernels)
	}
	if !reflect.DeepEqual(serial, pooled) {
		t.Error("jobs 2 report differs from the jobs 1 report")
	}
}
