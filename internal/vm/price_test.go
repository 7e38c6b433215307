package vm

import (
	"context"
	"reflect"
	"testing"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// recordEvents runs prog on proc's compiled engine and returns the
// completed run's events.
func recordEvents(t *testing.T, prog *Program, proc *pdesc.Processor, args []interface{}) *Events {
	t.Helper()
	_, ev, err := NewMachine(proc).RunEvents(context.Background(), prog, cloneArgs(args)...)
	if err != nil {
		t.Fatalf("%s: %v", proc.Name, err)
	}
	if ev == nil {
		t.Fatalf("%s: completed run recorded no events", proc.Name)
	}
	return ev
}

// assertPriced prices ev on proc and requires exactly the reference
// engine's Cycles, Executed and ClassCounts for a run on proc. It
// returns the priced cycles.
func assertPriced(t *testing.T, label string, prog *Program, ev *Events, proc *pdesc.Processor, args []interface{}) int64 {
	t.Helper()
	ref := NewMachine(proc)
	ref.Engine = EngineReference
	if _, err := ref.Run(prog, cloneArgs(args)...); err != nil {
		t.Fatalf("%s: reference run: %v", label, err)
	}
	m := NewMachine(proc)
	if !m.Price(prog, ev) {
		t.Fatalf("%s: Price declined", label)
	}
	if m.Cycles != ref.Cycles || m.Executed != ref.Executed {
		t.Errorf("%s: priced cycles %d executed %d, reference %d / %d", label, m.Cycles, m.Executed, ref.Cycles, ref.Executed)
	}
	if !reflect.DeepEqual(m.ClassCounts, ref.ClassCounts) {
		t.Errorf("%s: priced ClassCounts\n  %v\nreference\n  %v", label, m.ClassCounts, ref.ClassCounts)
	}
	return m.Cycles
}

// assertPricedEverywhere records events on every processor and prices
// each recording on every processor.
func assertPricedEverywhere(t *testing.T, prog *Program, procs []*pdesc.Processor, args []interface{}) map[string]int64 {
	t.Helper()
	cycles := map[string]int64{}
	for _, from := range procs {
		ev := recordEvents(t, prog, from, args)
		for _, to := range procs {
			cycles[to.Name] = assertPriced(t, from.Name+" -> "+to.Name, prog, ev, to, args)
		}
	}
	return cycles
}

// variant returns a named clone of a built-in target after mutate.
func variant(base, name string, mutate func(p *pdesc.Processor)) *pdesc.Processor {
	p := pdesc.Builtin(base).Clone()
	p.Name = name
	mutate(p)
	return p
}

// withoutInstrs drops the named custom instructions.
func withoutInstrs(p *pdesc.Processor, names ...string) {
	kept := p.Instructions[:0]
	for _, in := range p.Instructions {
		drop := false
		for _, n := range names {
			drop = drop || in.Name == n
		}
		if !drop {
			kept = append(kept, in)
		}
	}
	p.Instructions = kept
}

// loopProg wraps body in a counted loop run `trips` times (r0 is the
// counter, r1 the trip count, r2 the loop test), so every body charge
// is multiplied by a block run count.
func loopProg(trips int64, numRegs int, body ...Instr) *Program {
	ik := ir.Kind{Base: ir.Int, Lanes: 1}
	prog := &Program{Name: "loop", NumRegs: numRegs}
	prog.Instrs = []Instr{
		{Op: OpConst, K: ik, Dst: 0, ImmI: 0},
		{Op: OpConst, K: ik, Dst: 1, ImmI: trips},
		// head (pc 2): exit when !(r0 < r1)
		{Op: OpBin, K: ik, OpBase: ir.Int, BOp: ir.OpLt, Dst: 2, A: 0, B: 1},
		{Op: OpJz, A: 2},
	}
	prog.Instrs = append(prog.Instrs, body...)
	prog.Instrs = append(prog.Instrs,
		Instr{Op: OpConst, K: ik, Dst: 3, ImmI: 1},
		Instr{Op: OpBin, K: ik, OpBase: ir.Int, BOp: ir.OpAdd, Dst: 0, A: 0, B: 3},
		Instr{Op: OpJmp, Off: 2},
		Instr{Op: OpRet})
	prog.Instrs[3].Off = len(prog.Instrs) - 1
	return prog
}

// TestPriceStridedLoads: a strided float and complex vload are charged
// as vlds/vclds where the target declares them and as per-lane scalar
// loads where it does not; events recorded on either kind of target
// price exactly on both, and on a target whose vlds/load costs differ.
func TestPriceStridedLoads(t *testing.T) {
	vf := ir.Kind{Base: ir.Float, Lanes: 4}
	vc := ir.Kind{Base: ir.Complex, Lanes: 2}
	prog := loopProg(3, 9,
		Instr{Op: OpConst, K: ir.Kind{Base: ir.Int, Lanes: 1}, Dst: 8, ImmI: 4},
		Instr{Op: OpVLoad, K: vf, Dst: 4, A: 8, Arr: 0, ImmI: 2},
		Instr{Op: OpVLoad, K: vc, Dst: 5, A: 8, Arr: 1, ImmI: 3},
		Instr{Op: OpVLoad, K: vf, Dst: 6, A: 8, Arr: 0, ImmI: 1},
		Instr{Op: OpVLoad, K: vf, Dst: 7, A: 8, Arr: 0, ImmI: -1},
	)
	prog.Arrays = []ArraySlot{{Name: "x", Elem: ir.Float}, {Name: "z", Elem: ir.Complex}}
	prog.Params = []Param{{Name: "x", IsArray: true, Elem: ir.Float, Arr: 0}, {Name: "z", IsArray: true, Elem: ir.Complex, Arr: 1}}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	x, z := ir.NewFloatArray(1, 16), ir.NewComplexArray(1, 16)
	args := []interface{}{x, z}

	with := pdesc.Builtin("dspasip")
	without := variant("dspasip", "dspasip-nolds", func(p *pdesc.Processor) { withoutInstrs(p, "vlds", "vclds") })
	repriced := variant("dspasip", "dspasip-repriced", func(p *pdesc.Processor) {
		p.Costs = map[string]int{"load": 5, "cload": 6, "vload": 2}
		for i := range p.Instructions {
			if p.Instructions[i].Name == "vlds" {
				p.Instructions[i].Cycles = 9
			}
		}
	})
	if with.Instr("vlds") == nil || with.Instr("vclds") == nil {
		t.Fatal("dspasip no longer declares vlds/vclds")
	}
	cycles := assertPricedEverywhere(t, prog, []*pdesc.Processor{with, without, repriced}, args)
	if cycles[with.Name] == cycles[without.Name] || cycles[with.Name] == cycles[repriced.Name] {
		t.Errorf("strided charges did not separate the targets: %v", cycles)
	}
}

// TestPriceAllocZeroFill: float allocs of 0, 5, 10 and 15 elements and
// complex allocs of 0, 6, 7 and 8 zero-fill with ceil(elements/width)
// vstores, so the same events price differently at SIMD widths 1, 4
// and 8.
func TestPriceAllocZeroFill(t *testing.T) {
	ik := ir.Kind{Base: ir.Int, Lanes: 1}
	prog := loopProg(4, 8,
		Instr{Op: OpConst, K: ik, Dst: 4, ImmI: 5},
		Instr{Op: OpAlloc, Arr: 0, A: 0, B: 4},
		Instr{Op: OpBin, K: ik, OpBase: ir.Int, BOp: ir.OpAdd, Dst: 5, A: 0, B: 4},
		Instr{Op: OpAlloc, Arr: 1, A: 5, B: 3},
	)
	prog.Arrays = []ArraySlot{{Name: "t", Elem: ir.Float}, {Name: "u", Elem: ir.Complex}}
	// r3 (the loop's increment register) is 0 before the first
	// increment and 1 after, so u's first alloc is empty.
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	var procs []*pdesc.Processor
	for _, w := range []int{1, 4, 8} {
		procs = append(procs, variant("scalar", "w"+string(rune('0'+w)), func(p *pdesc.Processor) { p.SIMDWidth = w }))
	}
	cycles := assertPricedEverywhere(t, prog, procs, nil)
	if cycles["w1"] == cycles["w4"] || cycles["w4"] == cycles["w8"] {
		t.Errorf("zero-fill did not separate the widths: %v", cycles)
	}
}

// TestPriceShadowedClass: dspasip's cmul instruction shadows the
// architectural cmul class (one ClassCounts key), but an intrinsic issue
// is priced at its issue cost and a complex multiply at the class cost.
func TestPriceShadowedClass(t *testing.T) {
	ck := ir.Kind{Base: ir.Complex, Lanes: 1}
	prog := loopProg(3, 7,
		Instr{Op: OpIntr, K: ck, Dst: 6, Args: []int{4, 5}, Intr: "cmul"},
		Instr{Op: OpBin, K: ck, OpBase: ir.Complex, BOp: ir.OpMul, Dst: 6, A: 6, B: 5},
	)
	prog.Params = []Param{{Name: "a", Elem: ir.Complex, Reg: 4}, {Name: "b", Elem: ir.Complex, Reg: 5}}
	prog.Results = []Param{{Name: "y", Elem: ir.Complex, Reg: 6}}
	args := []interface{}{complex(1, 2), complex(-0.5, 3)}
	base := pdesc.Builtin("dspasip")
	if ci := base.Instr("cmul"); ci == nil {
		t.Fatal("dspasip no longer declares cmul")
	}
	split := variant("dspasip", "dspasip-split", func(p *pdesc.Processor) {
		p.Costs = map[string]int{"cmul": 11}
		for i := range p.Instructions {
			if p.Instructions[i].Name == "cmul" {
				p.Instructions[i].Cycles = 3
			}
		}
	})
	ev := recordEvents(t, prog, base, args)
	assertPriced(t, "dspasip -> split", prog, ev, split, args)
	m := NewMachine(split)
	m.Price(prog, ev)
	if m.ClassCounts["cmul"] != 6 {
		t.Errorf("cmul count = %d, want 6 (3 issues + 3 multiplies)", m.ClassCounts["cmul"])
	}
}

// TestPriceDeclinesOverLimit: a machine whose cycle limit is below the
// priced cycles declines to price; its real run reports the reference
// engine's fault pc, text and partial accounting. At exactly the priced
// cycles it still prices.
func TestPriceDeclinesOverLimit(t *testing.T) {
	fk := ir.Kind{Base: ir.Float, Lanes: 1}
	prog := loopProg(10, 6, Instr{Op: OpBin, K: fk, OpBase: ir.Float, BOp: ir.OpMul, Dst: 4, A: 4, B: 5})
	prog.Params = []Param{{Name: "a", Elem: ir.Float, Reg: 4}, {Name: "b", Elem: ir.Float, Reg: 5}}
	prog.Results = []Param{{Name: "y", Elem: ir.Float, Reg: 4}}
	args := []interface{}{1.5, 0.75}
	proc := pdesc.Builtin("scalar")
	ev := recordEvents(t, prog, proc, args)
	priced := assertPriced(t, "scalar", prog, ev, proc, args)

	exact := NewMachine(proc)
	exact.MaxCycles = priced
	if !exact.Price(prog, ev) {
		t.Errorf("Price declined at a limit equal to the priced cycles")
	}
	m := NewMachine(proc)
	m.MaxCycles = priced - 7
	if m.Price(prog, ev) {
		t.Fatalf("Price accepted a limit of %d below the priced %d cycles", m.MaxCycles, priced)
	}
	_, err := m.Run(prog, cloneArgs(args)...)
	if err == nil {
		t.Fatal("real run under the limit did not fault")
	}
	assertEnginesAgree(t, prog, proc, m.MaxCycles, args)
}

// TestPriceDeclinesMissingIntrinsic: events that executed an intrinsic
// do not price on a target lacking it — the real run faults there with
// the reference text — while an intrinsic the run never reached does
// not stop pricing.
func TestPriceDeclinesMissingIntrinsic(t *testing.T) {
	fk := ir.Kind{Base: ir.Float, Lanes: 1}
	ik := ir.Kind{Base: ir.Int, Lanes: 1}
	build := func(taken int64) *Program {
		prog := &Program{Name: "fma", NumRegs: 5}
		prog.Params = []Param{{Name: "a", Elem: ir.Float, Reg: 0}, {Name: "b", Elem: ir.Float, Reg: 1}, {Name: "c", Elem: ir.Float, Reg: 2}}
		prog.Results = []Param{{Name: "y", Elem: ir.Float, Reg: 3}}
		prog.Instrs = []Instr{
			{Op: OpConst, K: ik, Dst: 4, ImmI: taken},
			{Op: OpJz, A: 4, Off: 3},
			{Op: OpIntr, K: fk, Dst: 3, Args: []int{0, 1, 2}, Intr: "fma"},
			{Op: OpRet},
		}
		return prog
	}
	args := []interface{}{1.0, 2.0, 3.0}
	has, lacks := pdesc.Builtin("dspasip"), pdesc.Builtin("scalar")
	if lacks.Instr("fma") != nil {
		t.Fatal("scalar now declares fma")
	}

	prog := build(1)
	ev := recordEvents(t, prog, has, args)
	m := NewMachine(lacks)
	if m.Price(prog, ev) {
		t.Fatal("Price accepted a target lacking an executed intrinsic")
	}
	_, err := m.Run(prog, cloneArgs(args)...)
	ref := NewMachine(lacks)
	ref.Engine = EngineReference
	_, refErr := ref.Run(prog, cloneArgs(args)...)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("real run error %v, reference %v", err, refErr)
	}

	skipped := build(0)
	assertPriced(t, "fma not reached", skipped, recordEvents(t, skipped, has, args), lacks, args)
}

// TestPriceNeedsARun: profiling machines and runs the compiled engine
// did not complete yield no pricing.
func TestPriceNeedsARun(t *testing.T) {
	prog := scalarProg(8)
	proc := pdesc.Builtin("scalar")
	ev := recordEvents(t, prog, proc, []interface{}{1.0})
	m := NewMachine(proc)
	m.Profile = true
	if m.Price(prog, ev) {
		t.Error("Price accepted a profiling machine")
	}
	ref := NewMachine(proc)
	ref.Engine = EngineReference
	if _, ev, err := ref.RunEvents(context.Background(), prog, 1.0); err != nil || ev != nil {
		t.Errorf("reference engine run: events %v, err %v; want none", ev, err)
	}
	limited := NewMachine(proc)
	limited.MaxCycles = 3 // the one block does not fit: handed to the reference
	if _, ev, _ := limited.RunEvents(context.Background(), prog, 1.0); ev != nil {
		t.Error("a run handed to the reference interpreter recorded events")
	}
}

// BenchmarkVMPrice prices the events of one fir run on dspasip on a
// cost-repriced dspasip the run never saw, as a DSE sweep prices each
// variant. Its cost follows the program's charge symbols, not its
// instructions or the blocks the run executed.
func BenchmarkVMPrice(b *testing.B) {
	prog, p, args := benchProg(b, firSrc, "dspasip", 1024, false)
	_, ev, err := NewMachine(p).RunEvents(context.Background(), prog, args...)
	if err != nil || ev == nil {
		b.Fatalf("recording events: %v", err)
	}
	repriced := p.Clone()
	repriced.Costs = map[string]int{"cload": 4, "load": 1, "vop": 4}
	m := NewMachine(repriced)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Price(prog, ev) {
			b.Fatal("Price declined")
		}
	}
	b.ReportMetric(float64(len(ev.blocks.syms)), "symbols")
}
