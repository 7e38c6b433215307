package vm

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
	"mat2c/internal/sema"
)

// bitsEqC reports whether two complex values are bit-identical.
func bitsEqC(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// resultsDiff compares two result sets for exact bit equality (both
// engines share the same operand semantics in the same order, so even
// NaN payloads and signed zeros must match) and describes the first
// difference.
func resultsDiff(ref, got []interface{}) error {
	if len(ref) != len(got) {
		return fmt.Errorf("result count: reference %d, compiled %d", len(ref), len(got))
	}
	for i := range ref {
		switch x := ref[i].(type) {
		case int64:
			if x != got[i].(int64) {
				return fmt.Errorf("result %d: reference %v, compiled %v", i, x, got[i])
			}
		case float64:
			if math.Float64bits(x) != math.Float64bits(got[i].(float64)) {
				return fmt.Errorf("result %d: reference %v, compiled %v", i, x, got[i])
			}
		case complex128:
			if !bitsEqC(x, got[i].(complex128)) {
				return fmt.Errorf("result %d: reference %v, compiled %v", i, x, got[i])
			}
		case *ir.Array:
			y := got[i].(*ir.Array)
			if x.Rows != y.Rows || x.Cols != y.Cols || x.Elem != y.Elem {
				return fmt.Errorf("result %d: shape %dx%d vs %dx%d", i, x.Rows, x.Cols, y.Rows, y.Cols)
			}
			for j := 0; j < x.Len(); j++ {
				if !bitsEqC(x.At(j), y.At(j)) {
					return fmt.Errorf("result %d element %d: reference %v, compiled %v", i, j, x.At(j), y.At(j))
				}
			}
		default:
			return fmt.Errorf("result %d: unexpected type %T", i, ref[i])
		}
	}
	return nil
}

func bitsEqResults(t *testing.T, ref, got []interface{}) {
	t.Helper()
	if err := resultsDiff(ref, got); err != nil {
		t.Fatal(err)
	}
}

func runEngine(prog *Program, p *pdesc.Processor, engine string, maxCycles int64, args []interface{}) (*Machine, []interface{}, error) {
	m := NewMachine(p)
	m.Engine = engine
	m.MaxCycles = maxCycles
	out, err := m.Run(prog, cloneArgs(args)...)
	return m, out, err
}

// pcCounter is a Trace writer counting each pc's executions from the
// pc field of every trace line.
type pcCounter struct {
	counts []int64
	line   []byte // the trace not yet split into lines
	err    error  // the first line that names no pc of the program
}

func (c *pcCounter) Write(p []byte) (int, error) {
	c.line = append(c.line, p...)
	for {
		i := bytes.IndexByte(c.line, '\n')
		if i < 0 {
			return len(p), nil
		}
		f := bytes.Fields(c.line[:i]) // cycles, "pc:", disassembly
		pc := -1
		if len(f) > 1 {
			pc, _ = strconv.Atoi(string(bytes.TrimSuffix(f[1], []byte(":"))))
		}
		if pc < 0 || pc >= len(c.counts) {
			c.err = cmp.Or(c.err, fmt.Errorf("trace line %q names no pc", c.line[:i]))
		} else {
			c.counts[pc]++
		}
		c.line = c.line[i+1:]
	}
}

// tracedPCs runs prog on m under a pcCounter (so on the reference
// engine) and returns each pc's execution count with the run's outputs.
func tracedPCs(m *Machine, prog *Program, args []interface{}) ([]int64, []interface{}, error) {
	pcs := &pcCounter{counts: make([]int64, len(prog.Instrs))}
	m.Trace = pcs
	out, err := m.Run(prog, cloneArgs(args)...)
	return pcs.counts, out, cmp.Or(pcs.err, err)
}

// eventPCs is each pc's execution count in the completed run ev
// records: the run count of the block holding it.
func eventPCs(prog *Program, ev *Events) []int64 {
	counts := make([]int64, len(prog.Instrs))
	for _, b := range ev.Blocks() {
		for pc := b.Start; pc < b.End; pc++ {
			counts[pc] = b.Runs
		}
	}
	return counts
}

// enginesDiff runs prog on the reference and compiled engines and
// describes the first observable they disagree on: error presence or
// text (fault messages include the pc, so fault locations must match
// too), Cycles, Executed, ClassCounts, or outputs, and, for a run the
// compiled engine completed, each pc's execution count by its events
// against the pcs the reference run traced. The reference interpreter
// is the oracle. refErr is its run's error.
func enginesDiff(prog *Program, p *pdesc.Processor, maxCycles int64, args []interface{}) (refErr, diff error) {
	mr := NewMachine(p)
	mr.MaxCycles = maxCycles
	pcsR, outR, errR := tracedPCs(mr, prog, args)
	mc := NewMachine(p)
	mc.MaxCycles = maxCycles
	outC, ev, errC := mc.RunEvents(context.Background(), prog, cloneArgs(args)...)
	switch {
	case (errR == nil) != (errC == nil) || errR != nil && errR.Error() != errC.Error():
		return errR, fmt.Errorf("error: reference %v, compiled %v", errR, errC)
	case mr.Cycles != mc.Cycles || mr.Executed != mc.Executed:
		return errR, fmt.Errorf("cycles/executed: reference %d/%d, compiled %d/%d", mr.Cycles, mr.Executed, mc.Cycles, mc.Executed)
	case !reflect.DeepEqual(mr.ClassCounts, mc.ClassCounts):
		return errR, fmt.Errorf("ClassCounts:\n  reference %v\n  compiled  %v", mr.ClassCounts, mc.ClassCounts)
	case ev != nil && !slices.Equal(pcsR, eventPCs(prog, ev)):
		return errR, fmt.Errorf("per-pc counts:\n  reference trace %v\n  compiled events %v", pcsR, eventPCs(prog, ev))
	case errR == nil:
		return nil, resultsDiff(outR, outC)
	}
	return errR, nil
}

// assertEnginesAgree fails t unless prog runs identically on both
// engines (enginesDiff).
func assertEnginesAgree(t *testing.T, prog *Program, p *pdesc.Processor, maxCycles int64, args []interface{}) {
	t.Helper()
	if _, err := enginesDiff(prog, p, maxCycles, args); err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
}

// TestEngineEquivalence runs the full kernel battery on both engines
// across targets, optimization levels, and sizes, requiring bit-exact
// agreement on every observable.
func TestEngineEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	kernels := []struct {
		name   string
		src    string
		params []sema.Type
		args   func(n int) []interface{}
	}{
		{
			name: "fir",
			src: `function y = f(x, h)
n = length(x);
t = length(h);
y = zeros(1, n);
for i = t:n
    acc = 0;
    for k = 1:t
        acc = acc + h(k) * x(i - k + 1);
    end
    y(i) = acc;
end
end`,
			params: []sema.Type{dynVec(), dynVec()},
			args: func(n int) []interface{} {
				return []interface{}{randArr(n, r), randArr(4, r)}
			},
		},
		{
			name: "cdot",
			src: `function s = f(a, b)
s = 0;
for i = 1:length(a)
    s = s + a(i) * conj(b(i));
end
end`,
			params: []sema.Type{dynCVec(), dynCVec()},
			args: func(n int) []interface{} {
				return []interface{}{randCArr(n, r), randCArr(n, r)}
			},
		},
		{
			name: "twiddle",
			src: `function w = f(n)
w = zeros(1, n);
for k = 1:n
    w(k) = exp(-2i * pi * (k - 1) / n);
end
end`,
			params: []sema.Type{sema.IntScalar},
			args:   func(n int) []interface{} { return []interface{}{int64(max(n, 1))} },
		},
		{
			name: "control",
			src: `function s = f(x)
s = 0;
i = 1;
while i <= length(x)
    if x(i) > 0
        s = s + x(i);
    elseif x(i) < -1
        s = s - 1;
    end
    if s > 100
        break
    end
    i = i + 1;
end
end`,
			params: []sema.Type{dynVec()},
			args:   func(n int) []interface{} { return []interface{}{randArr(n, r)} },
		},
		{
			name: "matmul",
			src: `function c = f(a, b)
c = a * b;
end`,
			params: []sema.Type{
				{Class: sema.Real, Shape: sema.Shape{Rows: 4, Cols: 4}},
				{Class: sema.Real, Shape: sema.Shape{Rows: 4, Cols: 4}},
			},
			args: func(n int) []interface{} {
				a := ir.NewFloatArray(4, 4)
				b := ir.NewFloatArray(4, 4)
				for i := range a.F {
					a.F[i] = r.NormFloat64()
					b.F[i] = r.NormFloat64()
				}
				return []interface{}{a, b}
			},
		},
	}
	for _, k := range kernels {
		for _, proc := range []string{"scalar", "dspasip", "wide2", "wide8", "nocomplex", "nosimd"} {
			for _, optimize := range []bool{false, true} {
				for _, n := range []int{4, 7, 16, 33} {
					f, p := buildIR(t, k.src, proc, optimize, k.params...)
					prog, err := Lower(f)
					if err != nil {
						t.Fatalf("%s/%s: %v", k.name, proc, err)
					}
					assertEnginesAgree(t, prog, p, 0, k.args(n))
				}
			}
		}
	}
	// A longer fir with an 8-tap filter on a SIMD target: a vectorized
	// inner loop next to the block split after the output's alloc.
	f, p := buildIR(t, firSrc, "dspasip", true, dynVec(), dynVec())
	prog, err := Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	assertEnginesAgree(t, prog, p, 0, []interface{}{randArr(64, r), randArr(8, r)})
}

// TestEngineEquivalenceFaults checks that the engines agree on faulting
// executions too: message text, fault pc, and the partially-accumulated
// cycle accounting at the fault point.
func TestEngineEquivalenceFaults(t *testing.T) {
	t.Run("out-of-bounds", func(t *testing.T) {
		f, p := buildIR(t, "function y = f(x)\ny = x(10);\nend", "scalar", false, dynVec())
		prog, err := Lower(f)
		if err != nil {
			t.Fatal(err)
		}
		assertEnginesAgree(t, prog, p, 0, []interface{}{ir.NewFloatArray(1, 3)})
	})
	t.Run("cycle-limit", func(t *testing.T) {
		f, p := buildIR(t, "function y = f()\ny = 0;\nwhile 1 > 0\n    y = y + 1;\nend\nend", "scalar", false)
		prog, err := Lower(f)
		if err != nil {
			t.Fatal(err)
		}
		assertEnginesAgree(t, prog, p, 9999, nil)
	})
	t.Run("int-div-by-zero", func(t *testing.T) {
		prog := &Program{
			Name:    "t",
			NumRegs: 3,
			Params: []Param{
				{Name: "a", Elem: ir.Int, Reg: 0},
				{Name: "b", Elem: ir.Int, Reg: 1},
			},
			Results: []Param{{Name: "y", Elem: ir.Int, Reg: 2}},
			Instrs: []Instr{
				{Op: OpBin, K: ir.Kind{Base: ir.Int, Lanes: 1}, OpBase: ir.Int, BOp: ir.OpDiv, Dst: 2, A: 0, B: 1},
				{Op: OpRet},
			},
		}
		assertEnginesAgree(t, prog, pdesc.Builtin("scalar"), 0, []interface{}{int64(7), int64(0)})
	})
	t.Run("intrinsic-not-provided", func(t *testing.T) {
		prog := intrProgram("cmac", 3)
		assertEnginesAgree(t, prog, pdesc.Builtin("scalar"), 0, []interface{}{1.0, 2.0, 3.0})
	})
	t.Run("unknown-intrinsic", func(t *testing.T) {
		prog := intrProgram("bogus", 2)
		assertEnginesAgree(t, prog, withInstr("scalar", "bogus"), 0, []interface{}{1.0, 2.0})
	})
	t.Run("intrinsic-arity", func(t *testing.T) {
		prog := intrProgram("fma", 2) // fma wants 3 args
		assertEnginesAgree(t, prog, withInstr("scalar", "fma"), 0, []interface{}{1.0, 2.0})
	})
}

// intrProgram hand-builds a minimal program that invokes one intrinsic
// over nargs float parameters.
func intrProgram(name string, nargs int) *Program {
	prog := &Program{Name: "t", NumRegs: nargs + 1}
	args := make([]int, nargs)
	params := make([]Param, nargs)
	for i := 0; i < nargs; i++ {
		args[i] = i
		params[i] = Param{Name: string(rune('a' + i)), Elem: ir.Float, Reg: i}
	}
	prog.Params = params
	prog.Results = []Param{{Name: "y", Elem: ir.Float, Reg: nargs}}
	prog.Instrs = []Instr{
		{Op: OpIntr, K: ir.Kind{Base: ir.Float, Lanes: 1}, Dst: nargs, Args: args, Intr: name},
		{Op: OpRet},
	}
	return prog
}

// TestRunDoesNotMutateMaxCycles guards the satellite fix: a
// zero-configured machine must stay zero-configured after Run.
func TestRunDoesNotMutateMaxCycles(t *testing.T) {
	f, p := buildIR(t, "function y = f(a)\ny = a + 1;\nend", "scalar", false, sema.RealScalar)
	prog, err := Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{EngineReference, EngineCompiled} {
		m := NewMachine(p)
		m.Engine = engine
		if _, err := m.Run(prog, 1.0); err != nil {
			t.Fatal(err)
		}
		if m.MaxCycles != 0 {
			t.Errorf("%s: Run mutated MaxCycles to %d", engine, m.MaxCycles)
		}
	}
}

// TestClassCountsMapReused: Run must clear, not reallocate, the counts
// map, and stale classes from a previous program must not survive.
func TestClassCountsMapReused(t *testing.T) {
	fa, p := buildIR(t, "function y = f(a)\ny = a * 2.5;\nend", "scalar", false, sema.RealScalar)
	fb, _ := buildIR(t, "function y = f(a)\ny = a + 1;\nend", "scalar", false, sema.IntScalar)
	pa, err := Lower(fa)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Lower(fb)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{EngineReference, EngineCompiled} {
		m := NewMachine(p)
		m.Engine = engine
		if _, err := m.Run(pa, 2.0); err != nil {
			t.Fatal(err)
		}
		first := reflect.ValueOf(m.ClassCounts).Pointer()
		if m.ClassCounts["fmul"] == 0 {
			t.Fatalf("%s: expected fmul in %v", engine, m.ClassCounts)
		}
		if _, err := m.Run(pb, int64(2)); err != nil {
			t.Fatal(err)
		}
		if got := reflect.ValueOf(m.ClassCounts).Pointer(); got != first {
			t.Errorf("%s: ClassCounts reallocated across runs", engine)
		}
		if _, ok := m.ClassCounts["fmul"]; ok {
			t.Errorf("%s: stale class survived reset: %v", engine, m.ClassCounts)
		}
	}
}

// TestPreparedCache: a lowered program carries one translation, and
// that one translation serves the processor it was compiled for, a
// content-identical clone and a different cost model, each run priced
// exactly as the reference engine charges it.
func TestPreparedCache(t *testing.T) {
	f, p := buildIR(t, "function y = f(a)\ny = a * 3;\nend", "dspasip", true, sema.RealScalar)
	prog, err := Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	before := CompiledStats().Translations
	cp := CompiledFor(prog)
	if CompiledFor(prog) != cp {
		t.Error("a Program must carry one translation")
	}
	derived := p.Clone()
	derived.Name = "variant"
	derived.Costs = map[string]int{"fmul": 9}
	cycles := map[string]int64{}
	for _, q := range []*pdesc.Processor{p, p.Clone(), derived} {
		assertEnginesAgree(t, prog, q, 0, []interface{}{2.0})
		m := NewMachine(q)
		if _, err := m.Run(prog, 2.0); err != nil {
			t.Fatal(err)
		}
		cycles[q.Name] = m.Cycles
	}
	if cycles[p.Name] == cycles[derived.Name] {
		t.Errorf("repricing fmul left the cycles at %d: the run did not read the derived cost model", cycles[p.Name])
	}
	if n := CompiledStats().Translations - before; n != 1 {
		t.Errorf("%d translations, want 1 shared by every processor", n)
	}
}

func TestProgramContentHashStable(t *testing.T) {
	f, _ := buildIR(t, "function y = f(a)\ny = a + 1;\nend", "scalar", false, sema.RealScalar)
	p1, err := Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := buildIR(t, "function y = f(a)\ny = a + 1;\nend", "scalar", false, sema.RealScalar)
	p2, err := Lower(f2)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ContentHash() != p2.ContentHash() {
		t.Error("identical lowerings must hash identically")
	}
	f3, _ := buildIR(t, "function y = f(a)\ny = a + 2;\nend", "scalar", false, sema.RealScalar)
	p3, err := Lower(f3)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ContentHash() == p3.ContentHash() {
		t.Error("different programs must hash differently")
	}
}

// TestTraceForcesReference: tracing must still work on a machine left
// on the default compiled engine, which has no trace hooks.
func TestTraceForcesReference(t *testing.T) {
	f, p := buildIR(t, "function y = f(a)\ny = a + 1;\nend", "scalar", false, sema.RealScalar)
	prog, err := Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	m := NewMachine(p)
	m.Trace = &sb
	if _, err := m.Run(prog, 1.0); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Error("no trace output")
	}
}

// benchProg compiles a kernel for benchmarking and returns the program,
// processor, and arguments.
func benchProg(b *testing.B, src, proc string, n int, complexIn bool) (*Program, *pdesc.Processor, []interface{}) {
	b.Helper()
	var params []sema.Type
	var args []interface{}
	r := rand.New(rand.NewSource(42))
	if complexIn {
		params = []sema.Type{dynCVec(), dynCVec()}
		args = []interface{}{randCArr(n, r), randCArr(16, r)}
	} else {
		params = []sema.Type{dynVec(), dynVec()}
		args = []interface{}{randArr(n, r), randArr(16, r)}
	}
	f, p := buildIR(b, src, proc, true, params...)
	prog, err := Lower(f)
	if err != nil {
		b.Fatal(err)
	}
	return prog, p, args
}

const firSrc = `function y = f(x, h)
n = length(x);
t = length(h);
y = zeros(1, n);
for i = t:n
    acc = 0;
    for k = 1:t
        acc = acc + h(k) * x(i - k + 1);
    end
    y(i) = acc;
end
end`

const cfirSrc = `function y = f(x, h)
n = length(x);
t = length(h);
y = zeros(1, n);
for i = t:n
    acc = 0;
    for k = 1:t
        acc = acc + h(k) * x(i - k + 1);
    end
    y(i) = acc;
end
end`

// benchEngines runs the kernel on the compiled and reference engines,
// reporting simulated instructions per second (the throughput metric
// tracked by BENCH_vm.json) and allocations per simulated run.
func benchEngines(b *testing.B, src, proc string, n int, complexIn bool) {
	for _, engine := range []string{EngineCompiled, EngineReference} {
		b.Run(engine, func(b *testing.B) {
			prog, p, args := benchProg(b, src, proc, n, complexIn)
			m := NewMachine(p)
			m.Engine = engine
			// Warm the translation cache and scratch pool outside the timer.
			if _, err := m.Run(prog, args...); err != nil {
				b.Fatal(err)
			}
			perRun := m.Executed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(prog, args...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(perRun)*float64(b.N)/secs, "instrs/sec")
			}
		})
	}
}

func BenchmarkVMFir1024(b *testing.B)       { benchEngines(b, firSrc, "dspasip", 1024, false) }
func BenchmarkVMCFir1024(b *testing.B)      { benchEngines(b, cfirSrc, "dspasip", 1024, true) }
func BenchmarkVMFirScalar1024(b *testing.B) { benchEngines(b, firSrc, "scalar", 1024, false) }
func BenchmarkVMFirWide8(b *testing.B)      { benchEngines(b, firSrc, "wide8", 1024, false) }
