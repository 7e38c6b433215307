package vm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
	"mat2c/internal/sema"
)

// scalarProg hand-builds a straight-line program over float scalars:
// n chained adds feeding a result register, then ret.
func scalarProg(n int) *Program {
	prog := &Program{Name: "t", NumRegs: 3}
	prog.Params = []Param{{Name: "a", Elem: ir.Float, Reg: 0}}
	prog.Results = []Param{{Name: "y", Elem: ir.Float, Reg: 1}}
	fk := ir.Kind{Base: ir.Float, Lanes: 1}
	for i := 0; i < n; i++ {
		prog.Instrs = append(prog.Instrs, Instr{
			Op: OpBin, K: fk, OpBase: ir.Float, BOp: ir.OpAdd, Dst: 1, A: 0, B: 1,
		})
	}
	prog.Instrs = append(prog.Instrs, Instr{Op: OpRet})
	return prog
}

// TestCompiledStatsAccrue: one straight-line program is one block and
// one translation, however many processors run it.
func TestCompiledStatsAccrue(t *testing.T) {
	ResetCompiledStats()
	prog := scalarProg(20)
	for _, name := range []string{"scalar", "dspasip"} {
		if _, err := NewMachine(pdesc.Builtin(name)).Run(prog, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	st := CompiledStats()
	if st.Translations != 1 || st.BlocksCompiled != 1 {
		t.Errorf("stats = %+v, want 1 translation, 1 compiled block", st)
	}
}

// TestCompiledCacheKeying: a Program carries exactly one translation,
// the one CompiledFor returns and every running machine goes through,
// whatever its processor; another Program carries its own, even when
// its content is identical.
func TestCompiledCacheKeying(t *testing.T) {
	prog := scalarProg(8)
	before := CompiledStats().Translations
	for _, name := range []string{"scalar", "dspasip", "wide8"} {
		if _, err := NewMachine(pdesc.Builtin(name)).Run(prog, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	cp := CompiledFor(prog)
	if n := CompiledStats().Translations - before; n != 1 {
		t.Errorf("%d translations for one program run on three processors, want 1", n)
	}
	if CompiledFor(prog) != cp {
		t.Error("CompiledFor must return the translation the program carries")
	}
	twin := scalarProg(8)
	if twin.ContentHash() != prog.ContentHash() {
		t.Fatal("identical hand-built programs must hash identically")
	}
	if CompiledFor(twin) == cp {
		t.Error("a distinct Program must carry its own translation")
	}
}

// faultPathProg hand-builds a program over float parameters a, b (r0,
// r1) and a float local array t: three charged ops (two int consts
// holding an alloc extent in r2 x r3, one float add into r4), then
// tail, then a const and ret, so whatever tail does happens mid-block
// after charged work.
func faultPathProg(rows int64, tail ...Instr) *Program {
	ik := ir.Kind{Base: ir.Int, Lanes: 1}
	fk := ir.Kind{Base: ir.Float, Lanes: 1}
	prog := &Program{Name: "fp", NumRegs: 6}
	prog.Arrays = []ArraySlot{{Name: "t", Elem: ir.Float}}
	prog.Params = []Param{{Name: "a", Elem: ir.Float, Reg: 0}, {Name: "b", Elem: ir.Float, Reg: 1}}
	prog.Results = []Param{{Name: "y", Elem: ir.Float, Reg: 4}}
	prog.Instrs = []Instr{
		{Op: OpConst, K: ik, Dst: 2, ImmI: rows},
		{Op: OpConst, K: ik, Dst: 3, ImmI: 64},
		{Op: OpBin, K: fk, OpBase: ir.Float, BOp: ir.OpAdd, Dst: 4, A: 0, B: 1},
	}
	prog.Instrs = append(prog.Instrs, tail...)
	prog.Instrs = append(prog.Instrs,
		Instr{Op: OpConst, K: fk, Dst: 5, ImmF: 1},
		Instr{Op: OpRet})
	return prog
}

// withInstr returns a clone of a built-in target declaring one more
// custom instruction.
func withInstr(base, name string) *pdesc.Processor {
	p := pdesc.Builtin(base).Clone()
	p.Name = base + "+" + name
	p.Instructions = append(p.Instructions, pdesc.Instr{Name: name, Cycles: 1})
	return p
}

// TestCompiledFaultPaths is the fault-path differential for the ops
// whose charge placement is irregular: intrinsics that fault before or
// after their charge, an OpAlloc that faults before its charge, and an
// OpAlloc whose zero-fill alone crosses the cycle limit. Each faults
// mid-block after charged ops, and the engines must agree on every
// observable (assertEnginesAgree).
func TestCompiledFaultPaths(t *testing.T) {
	fk := ir.Kind{Base: ir.Float, Lanes: 1}
	intr := func(name string, args ...int) Instr {
		return Instr{Op: OpIntr, K: fk, Dst: 4, Args: args, Intr: name}
	}
	alloc := Instr{Op: OpAlloc, Arr: 0, A: 2, B: 3}
	cases := []struct {
		name      string
		prog      *Program
		proc      *pdesc.Processor
		maxCycles int64
		wantPC    int    // the reference engine's fault pc
		wantMsg   string // a substring of its fault text
	}{
		{"intrinsic-not-provided", faultPathProg(1, intr("cmac", 0, 1, 4)), pdesc.Builtin("scalar"), 0, 3, "not provided"},
		{"unknown-intrinsic", faultPathProg(1, intr("bogus", 0, 1)), withInstr("scalar", "bogus"), 0, 3, "unknown intrinsic"},
		{"intrinsic-arity", faultPathProg(1, intr("fma", 0, 1)), withInstr("scalar", "fma"), 0, 3, "expects 3 args"},
		{"alloc-bad-extent", faultPathProg(-1, alloc), pdesc.Builtin("scalar"), 0, 3, "bad extent"},
		// 64x64 zero-fill is thousands of cycles; everything up to and
		// including the alloc's own charge fits under 100.
		{"alloc-zero-fill-crosses-limit", faultPathProg(64, alloc), pdesc.Builtin("scalar"), 100, 4, "cycle limit"},
		{"alloc-zero-fill-crosses-limit-simd", faultPathProg(64, alloc), pdesc.Builtin("dspasip"), 100, 4, "cycle limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := []interface{}{1.5, 2.5}
			refM, _, refErr := runEngine(tc.prog, tc.proc, EngineReference, tc.maxCycles, args)
			var fe *FaultError
			if !errors.As(refErr, &fe) || fe.PC != tc.wantPC || !strings.Contains(fe.Msg, tc.wantMsg) || refM.Cycles == 0 {
				t.Fatalf("reference: %v after %d cycles, want a fault at pc %d containing %q after charged ops",
					refErr, refM.Cycles, tc.wantPC, tc.wantMsg)
			}
			assertEnginesAgree(t, tc.prog, tc.proc, tc.maxCycles, args)
		})
	}
}

// TestFaultSiteParityUnderCycleLimits is the fault-site differential:
// cycle limits chosen to land mid-block must produce an identical
// *FaultError (pc and text), identical partial accounting, and an
// identical partial per-pc profile under the reference and compiled
// engines.
func TestFaultSiteParityUnderCycleLimits(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, procName := range []string{"dspasip", "wide8", "scalar"} {
		f, p := buildIR(t, firSrc, procName, true, dynVec(), dynVec())
		prog, err := Lower(f)
		if err != nil {
			t.Fatal(err)
		}
		args := []interface{}{randArr(64, r), randArr(8, r)}

		run := func(engine string, lim int64) (*Machine, error) {
			m := NewMachine(p)
			m.Engine = engine
			m.MaxCycles = lim
			m.Profile = true
			_, err := m.Run(prog, cloneArgs(args)...)
			return m, err
		}

		mFull, errFull := run(EngineReference, 0)
		if errFull != nil {
			t.Fatalf("%s: fault-free run failed: %v", procName, errFull)
		}
		total := mFull.Cycles

		limits := []int64{1, 2, 3, 17, total / 100, total / 10, total / 3, total / 2, (9 * total) / 10, total - 1}
		faulted := 0
		for _, lim := range limits {
			if lim <= 0 {
				continue
			}
			label := fmt.Sprintf("%s limit=%d", procName, lim)
			refM, refErr := run(EngineReference, lim)
			m, err := run(EngineCompiled, lim)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("%s: error mismatch: reference %v, compiled %v", label, refErr, err)
			}
			if refErr != nil {
				faulted++
				var refFault, fe *FaultError
				if !errors.As(refErr, &refFault) || !errors.As(err, &fe) {
					t.Fatalf("%s: errors %v / %v, want *FaultError", label, refErr, err)
				}
				if fe.PC != refFault.PC {
					t.Errorf("%s: fault pc %d, reference faulted at pc %d", label, fe.PC, refFault.PC)
				}
				if err.Error() != refErr.Error() {
					t.Errorf("%s: fault text %q, reference %q", label, err, refErr)
				}
			}
			if m.Cycles != refM.Cycles || m.Executed != refM.Executed {
				t.Errorf("%s: cycles/executed %d/%d, reference %d/%d",
					label, m.Cycles, m.Executed, refM.Cycles, refM.Executed)
			}
			if !reflect.DeepEqual(m.ClassCounts, refM.ClassCounts) {
				t.Errorf("%s: ClassCounts %v, reference %v", label, m.ClassCounts, refM.ClassCounts)
			}
			if !reflect.DeepEqual(m.PCCounts, refM.PCCounts) {
				t.Errorf("%s: partial per-pc profile differs from reference", label)
			}
		}
		if faulted < len(limits)/2 {
			t.Fatalf("%s: only %d/%d limits faulted — the sweep is not landing mid-run", procName, faulted, len(limits))
		}
	}
}

// TestCompiledProfileParity: Machine.Profile under the compiled engine
// (batched per-block counting, prefix counting on faults) must agree
// with the reference engine per pc.
func TestCompiledProfileParity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f, p := buildIR(t, firSrc, "dspasip", true, dynVec(), dynVec())
	prog, err := Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	args := []interface{}{randArr(256, r), randArr(16, r)}
	for _, lim := range []int64{0, 999, 12345} {
		profile := func(engine string) []int64 {
			m := NewMachine(p)
			m.Engine = engine
			m.MaxCycles = lim
			m.Profile = true
			m.Run(prog, cloneArgs(args)...) // faulting runs still profile
			return m.PCCounts
		}
		if ref, comp := profile(EngineReference), profile(EngineCompiled); !reflect.DeepEqual(ref, comp) {
			t.Errorf("limit %d: compiled per-PC profile differs from reference", lim)
		}
	}
}

// TestProfileParity: Machine.Profile agrees per pc between the
// reference and compiled engines on real kernels across targets.
func TestProfileParity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	kernels := []struct {
		src  string
		args func() []interface{}
	}{
		{firSrc, func() []interface{} { return []interface{}{randArr(256, r), randArr(16, r)} }},
		{cfirSrc, func() []interface{} { return []interface{}{randCArr(256, r), randCArr(16, r)} }},
	}
	for _, procName := range []string{"scalar", "dspasip", "wide8"} {
		for ki, k := range kernels {
			params := []sema.Type{dynVec(), dynVec()}
			if ki == 1 {
				params = []sema.Type{dynCVec(), dynCVec()}
			}
			f, p := buildIR(t, k.src, procName, true, params...)
			prog, err := Lower(f)
			if err != nil {
				t.Fatal(err)
			}
			args := k.args()
			profile := func(engine string) []int64 {
				m := NewMachine(p)
				m.Engine = engine
				m.Profile = true
				if _, err := m.Run(prog, cloneArgs(args)...); err != nil {
					t.Fatal(err)
				}
				return m.PCCounts
			}
			if !reflect.DeepEqual(profile(EngineReference), profile(EngineCompiled)) {
				t.Errorf("%s kernel %d: compiled per-pc profile differs from reference", procName, ki)
			}
		}
	}
}

// Register and array layout of fuzzProg programs.
const (
	fzRegs    = 10 // r0..r2 params, r3/r4 results, r2..r7 destinations
	fzRowsReg = 8  // OpAlloc extents: written only by clamped consts
	fzColsReg = 9
	fzArrX    = 0 // float array parameter (8 elements in the harness)
	fzArrT    = 1 // float local, allocated in the program
	fzArrZ    = 2 // complex local, allocated in the program
	fzLanes   = 4
)

// fuzzProg decodes a byte string into a small program, two bytes per
// instruction: o selects the op (o%16) and destination (r2..r7), q
// supplies operand registers (q%8, q/8%8) and a two-bit variant (q>>6).
// The generator covers the opcode families whose compiled paths differ
// most from the reference: int/float arithmetic with division faults, int
// and float compares under both result bases (the fused compare
// paths), complex constants and arithmetic (observed through a complex
// result), conversions, moves, forward and backward jz/jmp (loops are
// bounded by MaxCycles in the harness), mid-program returns, scalar
// loads/stores/dims on an array parameter and two locals (out-of-bounds
// and unallocated-array faults replay charge-after-check placement),
// OpAlloc with extents clamped to a few dozen elements (block splits
// after each alloc and bad-extent faults), 4-lane vload, splat,
// vector arithmetic and reductions (reduce of a scalar faults), and
// the scalar intrinsics fma and cmul (handed to the reference
// interpreter on a target lacking them).
func fuzzProg(data []byte) *Program {
	prog := &Program{Name: "fz", NumRegs: fzRegs}
	prog.Arrays = []ArraySlot{
		{Name: "x", Elem: ir.Float},
		{Name: "t", Elem: ir.Float},
		{Name: "z", Elem: ir.Complex},
	}
	prog.Params = []Param{
		{Name: "a", Elem: ir.Float, Reg: 0},
		{Name: "b", Elem: ir.Float, Reg: 1},
		{Name: "c", Elem: ir.Int, Reg: 2},
		{Name: "x", Elem: ir.Float, IsArray: true, Arr: fzArrX},
	}
	prog.Results = []Param{
		{Name: "y", Elem: ir.Float, Reg: 3},
		{Name: "w", Elem: ir.Complex, Reg: 4},
	}
	ik := ir.Kind{Base: ir.Int, Lanes: 1}
	fk := ir.Kind{Base: ir.Float, Lanes: 1}
	ck := ir.Kind{Base: ir.Complex, Lanes: 1}
	vk := ir.Kind{Base: ir.Float, Lanes: fzLanes}
	arith := [4]ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv}
	icmp := [4]ir.Op{ir.OpLt, ir.OpLe, ir.OpEq, ir.OpNe}
	// Scalar memory ops address x, x, t, or z by variant.
	memArr := [4]int{fzArrX, fzArrX, fzArrT, fzArrZ}
	n := len(data) / 2
	if n > 64 {
		n = 64
	}
	emit := func(in Instr) { prog.Instrs = append(prog.Instrs, in) }
	for i := 0; i < n; i++ {
		o, q := data[2*i], data[2*i+1]
		dst := int(o>>4)%6 + 2
		a, b, v := int(q)%8, int(q/8)%8, int(q>>6)
		switch o % 16 {
		case 0:
			emit(Instr{Op: OpConst, K: ik, Dst: dst, ImmI: int64(q) - 128})
		case 1:
			if v == 3 {
				emit(Instr{Op: OpConst, K: ck, Dst: dst, ImmC: complex(float64(a)-4, float64(b)-4)})
				break
			}
			emit(Instr{Op: OpConst, K: fk, Dst: dst, ImmF: float64(q)/16 - 8})
		case 2:
			emit(Instr{Op: OpBin, K: fk, OpBase: ir.Float, BOp: arith[v], Dst: dst, A: a, B: b})
		case 3:
			emit(Instr{Op: OpBin, K: ik, OpBase: ir.Int, BOp: arith[v], Dst: dst, A: a, B: b})
		case 4:
			emit(Instr{Op: OpBin, K: ik, OpBase: ir.Int, BOp: icmp[v], Dst: dst, A: a, B: b})
		case 5:
			// Float compares with a float (xFLt, xFGe) or int
			// (xFLtI, xFGeI) result.
			k, op := fk, ir.OpLt
			if v&1 == 1 {
				op = ir.OpGe
			}
			if v >= 2 {
				k = ik
			}
			emit(Instr{Op: OpBin, K: k, OpBase: ir.Float, BOp: op, Dst: dst, A: a, B: b})
		case 6:
			if v < 2 {
				emit(Instr{Op: OpMov, K: fk, Dst: dst, A: a})
				break
			}
			// Complex add/sub (fused) or mul/div (mul fused, div generic).
			op := arith[(v-2)*2+b%2]
			emit(Instr{Op: OpBin, K: ck, OpBase: ir.Complex, BOp: op, Dst: dst, A: a, B: b})
		case 7:
			emit(Instr{Op: OpConv, K: [4]ir.Kind{ik, fk, ck, ik}[v], Dst: dst, A: a})
		case 8:
			// Branch targets are reduced modulo the final length below.
			emit(Instr{Op: OpJz, A: a, Off: int(q)})
		case 9:
			emit(Instr{Op: OpJmp, Off: int(q)})
		case 10:
			k := fk
			if memArr[v] == fzArrZ {
				k = ck
			}
			emit(Instr{Op: OpLoad, K: k, Arr: memArr[v], Dst: dst, A: a})
		case 11:
			emit(Instr{Op: OpStore, K: ir.Kind{Base: prog.Arrays[memArr[v]].Elem, Lanes: 1}, Arr: memArr[v], A: a, B: b})
		case 12:
			emit(Instr{Op: OpDim, K: ik, Arr: [4]int{fzArrX, fzArrT, fzArrZ, fzArrX}[v], Dst: dst, ImmI: int64(q % 3)})
		case 13:
			// Extents in [-1, 6] x [0, 7]: at most 42 elements, and a
			// negative row count faults.
			emit(Instr{Op: OpConst, K: ik, Dst: fzRowsReg, ImmI: int64(q%8) - 1})
			emit(Instr{Op: OpConst, K: ik, Dst: fzColsReg, ImmI: int64(q / 8 % 8)})
			arr := fzArrT
			if v&1 == 1 {
				arr = fzArrZ
			}
			emit(Instr{Op: OpAlloc, Arr: arr, A: fzRowsReg, B: fzColsReg})
		case 14:
			switch v {
			case 0:
				emit(Instr{Op: OpVLoad, K: vk, Arr: fzArrX, Dst: dst, A: a, ImmI: int64(1 + b%2)})
			case 1:
				emit(Instr{Op: OpSplat, K: vk, Dst: dst, A: a})
			case 2:
				emit(Instr{Op: OpBin, K: vk, OpBase: ir.Float, BOp: arith[b%4], Dst: dst, A: a, B: b})
			default:
				emit(Instr{Op: OpReduce, K: fk, OpBase: ir.Float, BOp: ir.OpAdd, Dst: dst, A: a})
			}
		case 15:
			switch v {
			case 2:
				emit(Instr{Op: OpIntr, K: fk, Intr: "fma", Dst: dst, Args: []int{a, b, (a + b) % 8}})
			case 3:
				emit(Instr{Op: OpIntr, K: ck, Intr: "cmul", Dst: dst, Args: []int{a, b}})
			default:
				emit(Instr{Op: OpRet})
			}
		}
	}
	emit(Instr{Op: OpRet})
	for i := range prog.Instrs {
		if op := prog.Instrs[i].Op; op == OpJz || op == OpJmp {
			prog.Instrs[i].Off %= len(prog.Instrs)
		}
	}
	return prog
}

// FuzzCompiledEngine runs random branchy programs (fuzzProg) under the
// compiled engine against the reference interpreter on a scalar target,
// two SIMD targets and a SIMD target lacking fma, all through the one
// translation the program carries, with fuzzed cycle limits so faults
// land at arbitrary block offsets, comparing every observable including
// per-pc profiles. Every run that completes is then priced from its
// events on every other target and on a SIMD variant with changed
// load/vstore/vlds costs; each price must equal that processor's
// reference run.
func FuzzCompiledEngine(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{2, 7, 3, 11, 4, 200, 5, 1, 7, 0}, uint16(0))
	f.Add([]byte{0, 0, 1, 255, 2, 9, 6, 13, 7, 250, 4, 31, 5, 0}, uint16(99))
	f.Add([]byte{7, 1, 7, 2, 7, 3, 2, 2, 2, 3, 2, 4, 2, 5}, uint16(7))
	// Alloc then scalar and vector memory traffic, a reduce, a loop.
	f.Add([]byte{13, 0x5a, 10, 0x81, 11, 0x88, 12, 0x42, 14, 0x08, 14, 0x49, 14, 0x8a, 14, 0xc2, 9, 2}, uint16(0))
	// Compares and conversions feeding a backward branch.
	f.Add([]byte{5, 0x01, 5, 0xc9, 4, 0x52, 7, 0x43, 7, 0x84, 8, 0x03}, uint16(300))
	// A complex value round-tripped through an allocated array right
	// after the allocating block, returned through w.
	f.Add([]byte{13, 83, 49, 245, 11, 234, 42, 194}, uint16(0))
	// Two allocs and a strided vload: zero-fill and strided charges that
	// price differently on every target.
	f.Add([]byte{13, 0x2d, 13, 0x3e, 14, 0x08, 14, 0x08, 15, 0}, uint16(0))
	// An fma into y after an alloc, then a cmul into w: scalar hands
	// both intrinsics' block off, the fma-less target the fma's.
	f.Add([]byte{13, 0x2d, 0x1f, 0x88, 0x2f, 0xca}, uint16(0))
	noFMA := withoutInstr(pdesc.Builtin("dspasip"), "dspasip-nofma", "fma")
	procs := []*pdesc.Processor{pdesc.Builtin("scalar"), pdesc.Builtin("dspasip"), pdesc.Builtin("wide8"), noFMA}
	repriced := pdesc.Builtin("dspasip").Clone()
	repriced.Name = "dspasip-repriced"
	repriced.Costs = map[string]int{"load": 3, "vstore": 5}
	for i := range repriced.Instructions {
		if repriced.Instructions[i].Name == "vlds" {
			repriced.Instructions[i].Cycles = 7
		}
	}
	targets := append(slices.Clone(procs), repriced)
	f.Fuzz(func(t *testing.T, data []byte, limSeed uint16) {
		prog := fuzzProg(data)
		if err := prog.Validate(); err != nil {
			t.Fatalf("generator produced an invalid program: %v", err)
		}
		x := ir.NewFloatArray(1, 8)
		for i := range x.F {
			x.F[i] = float64(i) - 2.5
		}
		args := []interface{}{1.25, -0.5, int64(3), x}
		maxCycles := int64(20000)
		if limSeed != 0 {
			maxCycles = int64(limSeed) // small limits fault mid-block
		}

		completed := make([]bool, len(procs))
		for i, proc := range procs {
			refErr, err := enginesDiff(prog, proc, maxCycles, args)
			if err != nil {
				t.Fatalf("%s: %v", proc.Name, err)
			}
			completed[i] = refErr == nil
		}

		for i, from := range procs {
			if !completed[i] {
				continue
			}
			m := NewMachine(from)
			m.MaxCycles = maxCycles
			_, ev, err := m.RunEvents(context.Background(), prog, cloneArgs(args)...)
			if err != nil {
				t.Fatalf("%s: events run: %v", from.Name, err)
			}
			if ev == nil {
				continue // the run's tail was handed to the reference interpreter
			}
			for _, to := range targets {
				if to == from {
					continue
				}
				ref := NewMachine(to)
				ref.Engine = EngineReference
				ref.MaxCycles = maxCycles
				_, refErr := ref.Run(prog, cloneArgs(args)...)
				pm := NewMachine(to)
				pm.MaxCycles = maxCycles
				if !pm.Price(prog, ev) {
					continue // an intrinsic to lacks ran, or over the limit on to: a real run decides
				}
				if refErr != nil {
					t.Fatalf("%s priced on %s, but the reference run fails: %v", from.Name, to.Name, refErr)
				}
				if pm.Cycles != ref.Cycles || pm.Executed != ref.Executed || !reflect.DeepEqual(pm.ClassCounts, ref.ClassCounts) {
					t.Fatalf("%s events priced on %s: cycles %d executed %d counts %v; reference cycles %d executed %d counts %v",
						from.Name, to.Name, pm.Cycles, pm.Executed, pm.ClassCounts, ref.Cycles, ref.Executed, ref.ClassCounts)
				}
			}
		}
	})
}
