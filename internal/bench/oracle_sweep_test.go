package bench_test

import (
	"context"
	"reflect"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/dse"
	"mat2c/internal/pdesc"
)

// TestOracleImmutableAcrossRuns drives the memoized oracle through a
// DSE sweep and a cached pipeline loop, then checks that no run
// mutated a shared entry: every memoized reference and its inputs
// still deep-equal a fresh computation.
func TestOracleImmutableAcrossRuns(t *testing.T) {
	const scale = 0.05
	ks := bench.Kernels()
	cases := make([]*bench.Case, len(ks))
	for i, k := range ks {
		cases[i] = k.Case(bench.SizeFor(k, scale))
	}

	rep, err := dse.ExploreContext(context.Background(),
		[]*dse.Sweep{{Widths: []int{1, 4}, Complex: []bool{false}, Groups: [][]string{nil, {"mac"}}}},
		dse.Options{Jobs: 2, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Variants {
		if v.Error != "" {
			t.Fatalf("variant %s: %s", v.Name, v.Error)
		}
	}
	cache := mat2c.NewCache(0)
	cfg := core.Proposed(pdesc.Builtin("dspasip"))
	for round := 0; round < 2; round++ {
		for _, k := range ks {
			if _, err := bench.RunPipelineCached(context.Background(), cache, k, cfg, bench.SizeFor(k, scale)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i, k := range ks {
		n := bench.SizeFor(k, scale)
		if k.Case(n) != cases[i] {
			t.Fatalf("%s: oracle entry at n=%d was recomputed during the runs", k.Name, n)
		}
		args := k.Inputs(n)
		if !reflect.DeepEqual(cases[i].Args(), args) {
			t.Errorf("%s: memoized inputs differ from a fresh k.Inputs(%d)", k.Name, n)
		}
		if !reflect.DeepEqual(cases[i].Want, k.Reference(args)) {
			t.Errorf("%s: memoized reference differs from a fresh k.Reference", k.Name)
		}
	}
}
