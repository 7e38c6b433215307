package dse

import (
	"context"
	"testing"

	"mat2c/internal/bench"
)

// e2eSweep is the end-to-end benchmark's sweep for seed 1, 2 or 3
// (e2ebench.SweepSpec(seed, false)): the default axes crossed with the
// base costs and one seeded cost set of three overrides.
func e2eSweep(seed int) *Sweep {
	seeded := [...]map[string]int{
		1: {"cload": 4, "load": 1, "vop": 4},
		2: {"branch": 1, "cload": 1, "fmul": 5},
		3: {"store": 5, "vload": 1, "vop": 4},
	}[seed]
	return &Sweep{Costs: []CostOverride{{}, {Name: "seeded", Costs: seeded}}}
}

// BenchmarkEnumerate is a sweep's serial set-up before any worker
// starts: EnumerateAll and CompileGroups on the seed-1 spec (320
// points, 272 variants, 136 groups).
func BenchmarkEnumerate(b *testing.B) {
	sweeps := []*Sweep{e2eSweep(1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vs, _, err := EnumerateAll(context.Background(), sweeps)
		if err != nil {
			b.Fatal(err)
		}
		if g := CompileGroups(vs); len(g) != 136 {
			b.Fatalf("%d compile groups, want 136", len(g))
		}
	}
}

// BenchmarkVariantKeys computes the cache keys of every seed-1 variant
// and kernel (1632 keys), as a sweep's runs do before they look up.
func BenchmarkVariantKeys(b *testing.B) {
	vs, _, err := EnumerateAll(context.Background(), []*Sweep{e2eSweep(1)})
	if err != nil {
		b.Fatal(err)
	}
	kernels := bench.Kernels()
	opts := Options{}.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vs {
			if _, err := variantKeys(v, kernels, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
