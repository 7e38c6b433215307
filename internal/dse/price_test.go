package dse

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/vm"
)

// e2eShapedSpec is a sweep shaped like the end-to-end benchmark's: the
// default axes crossed with the base cost table and one seeded override
// of three cost classes.
const e2eShapedSpec = `{"costs": [
  {"name": "", "costs": null},
  {"name": "seeded", "costs": {"cload": 4, "load": 1, "vop": 4}}
]}`

// doneCalls counts the calls of its Done method. A run of the program
// calls it once as it starts (vm.Machine.RunContext), the fallback run
// after a declined price included; a price never does.
type doneCalls struct {
	context.Context
	calls *atomic.Int64
}

func (c doneCalls) Done() <-chan struct{} {
	c.calls.Add(1)
	return c.Context.Done()
}

// TestPricedEqualsSimulated is the pricing property over whole sweeps:
// for every (variant, kernel) of the default sweep, an e2ebench-shaped
// cost sweep and an isx-seeded sweep, the accounting the sweep scored —
// priced from the memo unless the variant's program was new — equals a
// fresh run of the reference interpreter on that variant's processor,
// which shares no charging code with pricing; the sweep simulated
// exactly once per distinct (program, kernel, size), and scoring every
// (variant, kernel) again prices each without running the program.
func TestPricedEqualsSimulated(t *testing.T) {
	e2e, err := ParseSweep([]byte(e2eShapedSpec))
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.05
	sweeps := []struct {
		name string
		sw   *Sweep
	}{
		{"default", &Sweep{}},
		{"e2e-shaped", e2e},
		{"isx", &Sweep{ISX: &ISXSeed{Scale: scale}}},
	}
	kernels := bench.Kernels()
	ctx := context.Background()
	for _, tc := range sweeps {
		t.Run(tc.name, func(t *testing.T) {
			cache := mat2c.NewCache(0)
			rep, err := ExploreSweep(tc.sw, Options{Jobs: 2, Scale: scale, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			runs := cache.Stats().EventMisses
			variants, _, err := EnumerateAll(ctx, []*Sweep{tc.sw})
			if err != nil {
				t.Fatal(err)
			}
			type key struct {
				prog string
				k    *bench.Kernel
				n    int
			}
			keys := map[key]bool{}
			counted := doneCalls{ctx, new(atomic.Int64)}
			for i, v := range variants {
				vr := rep.Variants[i]
				if vr.Error != "" {
					t.Fatalf("%s: %s", vr.Name, vr.Error)
				}
				for _, k := range kernels {
					n := bench.SizeFor(k, scale)
					res, _, err := mat2c.CompileCachedContext(ctx, cache, k.Source, k.Entry, k.Params,
						mat2c.Options{Processor: v.Proc, SkipC: true})
					if err != nil {
						t.Fatal(err)
					}
					prog := res.Program()
					keys[key{prog.ContentHash(), k, n}] = true
					fresh := vm.NewMachine(v.Proc)
					fresh.Engine = vm.EngineReference
					if _, err := fresh.Run(prog, k.Case(n).Args()...); err != nil {
						t.Fatalf("%s/%s: %v", vr.Name, k.Name, err)
					}
					priced := vm.NewMachine(v.Proc)
					if err := k.Simulate(counted, cache, priced, prog, n); err != nil {
						t.Fatalf("%s/%s: %v", vr.Name, k.Name, err)
					}
					if priced.Cycles != fresh.Cycles || priced.Executed != fresh.Executed ||
						!reflect.DeepEqual(priced.ClassCounts, fresh.ClassCounts) {
						t.Fatalf("%s/%s: priced %d cycles %d executed %v; simulated %d / %d / %v",
							vr.Name, k.Name, priced.Cycles, priced.Executed, priced.ClassCounts,
							fresh.Cycles, fresh.Executed, fresh.ClassCounts)
					}
					if got := vr.KernelCycles[k.Name]; got != fresh.Cycles {
						t.Fatalf("%s/%s: report has %d cycles, simulation %d", vr.Name, k.Name, got, fresh.Cycles)
					}
				}
			}
			if again := cache.Stats().EventMisses; again != runs || counted.calls.Load() != 0 {
				t.Errorf("re-scoring the sweep simulated %d more times and ran the program %d times, want every (variant, kernel) priced",
					again-runs, counted.calls.Load())
			}
			if runs != uint64(len(keys)) {
				t.Errorf("%d simulations for %d distinct (program, kernel, size) keys over %d variants",
					runs, len(keys), len(variants))
			}
			t.Logf("%d variants, %d simulations", len(variants), runs)
		})
	}
}
