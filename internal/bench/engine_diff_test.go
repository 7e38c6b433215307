package bench_test

// Differential test between the two VM engines over the real benchmark
// suite: every kernel, every embedded target, and a slice of
// DSE-derived variants must produce bit-identical outputs, identical
// cycle and class accounting, and identical per-pc profiles under the
// reference interpreter and the compiled engine. This is the
// whole-pipeline companion to the per-opcode equivalence tests in
// internal/vm.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/dse"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

// diffScale keeps the matrix fast: the point is coverage of opcode ×
// target combinations, not long runs.
const diffScale = 0.125

type engineRun struct {
	out      []interface{}
	err      error
	cycles   int64
	executed int64
	counts   map[string]int64
}

func runKernelEngine(t *testing.T, res *core.Result, proc *pdesc.Processor, args []interface{}, engine string) engineRun {
	t.Helper()
	m := vm.NewMachine(proc)
	m.Engine = engine
	out, err := res.RunOn(m, bench.CloneArgs(args)...)
	return engineRun{out: out, err: err, cycles: m.Cycles, executed: m.Executed, counts: m.ClassCounts}
}

// bitsEqual compares outputs with exact bit equality (NaNs included):
// the compiled engine must not merely be numerically close, it must be
// the same computation.
func bitsEqual(a, b interface{}) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []float64:
		y, ok := b.([]float64)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	case complex128:
		y, ok := b.(complex128)
		return ok && math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	case []complex128:
		y, ok := b.([]complex128)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(real(x[i])) != math.Float64bits(real(y[i])) ||
				math.Float64bits(imag(x[i])) != math.Float64bits(imag(y[i])) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

// assertRunsAgree requires run got to match run want in every
// observable: error text, cycles, executed count, class counts, and
// bit-exact outputs.
func assertRunsAgree(t *testing.T, label string, got, want engineRun) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: error mismatch: got=%v want=%v", label, got.err, want.err)
	}
	if got.err != nil && got.err.Error() != want.err.Error() {
		t.Fatalf("%s: error text mismatch:\n  got:  %v\n  want: %v", label, got.err, want.err)
	}
	if got.cycles != want.cycles {
		t.Fatalf("%s: cycle mismatch: got=%d want=%d", label, got.cycles, want.cycles)
	}
	if got.executed != want.executed {
		t.Fatalf("%s: executed mismatch: got=%d want=%d", label, got.executed, want.executed)
	}
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Fatalf("%s: class counts mismatch:\n  got:  %v\n  want: %v", label, got.counts, want.counts)
	}
	if len(got.out) != len(want.out) {
		t.Fatalf("%s: output arity mismatch: %d vs %d", label, len(got.out), len(want.out))
	}
	for i := range got.out {
		if !bitsEqual(got.out[i], want.out[i]) {
			t.Fatalf("%s: output %d differs:\n  got:  %v\n  want: %v", label, i, got.out[i], want.out[i])
		}
	}
}

func diffKernelsOn(t *testing.T, name string, proc *pdesc.Processor) {
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
				args := k.Inputs(n)
				r := runKernelEngine(t, res, proc, args, vm.EngineReference)
				c := runKernelEngine(t, res, proc, args, vm.EngineCompiled)
				assertRunsAgree(t, fmt.Sprintf("vec=%v compiled", cfg.Vectorize), c, r)
				if c.err != nil {
					t.Fatalf("kernel run failed under both engines: %v", c.err)
				}
			}
		})
	}
}

// TestEnginesAgreeOnAllTargets runs the full kernel suite on every
// embedded processor description under both engines.
func TestEnginesAgreeOnAllTargets(t *testing.T) {
	for _, name := range pdesc.BuiltinNames() {
		diffKernelsOn(t, name, pdesc.Builtin(name))
	}
}

// TestProfilesAgreeOnAllKernels: the per-pc execution counts of
// Machine.Profile agree between the reference and compiled engines on
// every benchmark kernel (compiled blocks credit every member).
func TestProfilesAgreeOnAllKernels(t *testing.T) {
	proc := pdesc.Builtin("dspasip")
	for _, k := range bench.Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			n := bench.SizeFor(k, diffScale)
			res, err := core.Compile(k.Source, k.Entry, k.Params, core.Proposed(proc))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			args := k.Inputs(n)
			profile := func(engine string) []int64 {
				m := vm.NewMachine(proc)
				m.Engine = engine
				m.Profile = true
				if _, err := res.RunOn(m, bench.CloneArgs(args)...); err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				return m.PCCounts
			}
			if !reflect.DeepEqual(profile(vm.EngineReference), profile(vm.EngineCompiled)) {
				t.Error("compiled per-pc profile differs from reference")
			}
		})
	}
}

// TestEnginesAgreeOnDSEVariants does the same over a slice of the
// design-space-exploration enumeration, so cost tables that exist only
// as derived variants (re-widthed custom instructions, stripped
// instruction groups, overridden cost classes) are covered too.
func TestEnginesAgreeOnDSEVariants(t *testing.T) {
	sweep := &dse.Sweep{
		Base:    "dspasip",
		Widths:  []int{4, 16},
		Complex: []bool{true, false},
		Groups:  [][]string{{}, {"mac", "cmul"}},
		Costs: []dse.CostOverride{
			{Name: "base", Costs: nil},
			{Name: "slowmem", Costs: map[string]int{"load": 6, "store": 6, "vload": 6, "vstore": 6}},
		},
	}
	variants, err := sweep.Enumerate()
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if len(variants) < 4 {
		t.Fatalf("sweep produced only %d variants", len(variants))
	}
	for _, v := range variants {
		diffKernelsOn(t, v.Proc.Name, v.Proc)
	}
}
