package bench_test

// Round-trip property test for the durable program codec over the
// real workload: every benchmark kernel, on every builtin target and a
// sample of DSE-derived variants, must survive DecodeBlob(EncodeProgram(...))
// with an identical program ContentHash and a bit-identical simulation
// (outputs, cycle accounting, class counts) — reusing the differential
// harness from engine_diff_test.go, with the restored program standing
// in for the second engine.

import (
	"fmt"
	"testing"

	"mat2c/internal/artifact"
	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/dse"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

func roundTripKernelsOn(t *testing.T, name string, proc *pdesc.Processor) {
	t.Helper()
	for _, k := range bench.Kernels() {
		k := k
		t.Run(fmt.Sprintf("%s/%s", name, k.Name), func(t *testing.T) {
			t.Parallel()
			n := bench.SizeFor(k, diffScale)
			for _, cfg := range []core.Config{core.Baseline(proc), core.Proposed(proc)} {
				res, err := core.Compile(k.Source, k.Entry, k.Params, cfg)
				if err != nil {
					t.Fatalf("compile (vec=%v): %v", cfg.Vectorize, err)
				}
				// DecodeBlob is the cache's restore path: the blob must
				// verify against the hash it is stored under.
				dec, err := artifact.DecodeBlob(artifact.EncodeProgram(res.Program), res.Program.ContentHash())
				if err != nil {
					t.Fatalf("decode (vec=%v): %v", cfg.Vectorize, err)
				}
				if got, want := dec.ContentHash(), res.Program.ContentHash(); got != want {
					t.Fatalf("ContentHash changed across the round trip (vec=%v): %s != %s",
						cfg.Vectorize, got, want)
				}

				// Simulate original and restored programs on identical
				// inputs; the runs must be bit-identical in outputs and in
				// cycle accounting.
				restored := *res
				restored.Program = dec
				args := k.Inputs(n)
				orig := runKernelEngine(t, res, proc, args, vm.EngineCompiled)
				back := runKernelEngine(t, &restored, proc, args, vm.EngineCompiled)
				assertRunsAgree(t, fmt.Sprintf("restored vec=%v", cfg.Vectorize), back, orig)
				if orig.err != nil {
					t.Fatalf("kernel run failed: %v", orig.err)
				}
			}
		})
	}
}

// TestArtifactRoundTripAllTargets covers kernel × builtin target.
func TestArtifactRoundTripAllTargets(t *testing.T) {
	for _, name := range pdesc.BuiltinNames() {
		roundTripKernelsOn(t, name, pdesc.Builtin(name))
	}
}

// TestArtifactRoundTripDSEVariants covers a sample of derived variants
// (re-widthed custom instructions, stripped groups, overridden costs),
// whose programs exercise encodings no builtin target produces.
func TestArtifactRoundTripDSEVariants(t *testing.T) {
	sweep := &dse.Sweep{
		Base:    "dspasip",
		Widths:  []int{2, 8},
		Complex: []bool{true, false},
		Groups:  [][]string{{}, {"mac", "sad"}},
		Costs: []dse.CostOverride{
			{Name: "base", Costs: nil},
			{Name: "fastmul", Costs: map[string]int{"fmul": 1, "imul": 1}},
		},
	}
	variants, err := sweep.Enumerate()
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	// Sample every third variant: coverage of distinct encodings, not an
	// exhaustive re-run of the DSE matrix.
	for i := 0; i < len(variants); i += 3 {
		roundTripKernelsOn(t, variants[i].Proc.Name, variants[i].Proc)
	}
}
