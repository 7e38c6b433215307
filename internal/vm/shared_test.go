package vm

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// sharedSem is the semantics of the mined instruction isx0 in
// sharedProg.
const sharedSem = "float:mul(add(p0,p1),p1)"

// sharedProg hand-builds a program whose translation reads every
// processor-dependent price: an alloc (zero-fill by SIMD width and
// vstore cost) ending block 0; a strided vload (vlds or four scalar
// loads), a reduce, a store and a built-in fma ending block 1; the
// mined intrinsic isx0 and a load in block 2. Parameters are float
// scalars a, b and an 8-element float array x; results are y and the
// allocated array t.
func sharedProg() *Program {
	ik := ir.Kind{Base: ir.Int, Lanes: 1}
	fk := ir.Kind{Base: ir.Float, Lanes: 1}
	return &Program{
		Name:    "shared",
		NumRegs: 11,
		Arrays:  []ArraySlot{{Name: "x", Elem: ir.Float}, {Name: "t", Elem: ir.Float}},
		Params: []Param{
			{Name: "a", Elem: ir.Float, Reg: 0},
			{Name: "b", Elem: ir.Float, Reg: 1},
			{Name: "x", Elem: ir.Float, IsArray: true, Arr: 0},
		},
		Results: []Param{
			{Name: "y", Elem: ir.Float, Reg: 10},
			{Name: "t", Elem: ir.Float, IsArray: true, Arr: 1},
		},
		Instrs: []Instr{
			{Op: OpConst, K: ik, Dst: 2, ImmI: 3},
			{Op: OpConst, K: ik, Dst: 3, ImmI: 5},
			{Op: OpAlloc, Arr: 1, A: 2, B: 3},
			{Op: OpConst, K: ik, Dst: 4, ImmI: 1},
			{Op: OpVLoad, K: ir.Kind{Base: ir.Float, Lanes: 4}, Dst: 5, Arr: 0, A: 4, ImmI: 2},
			{Op: OpReduce, K: fk, OpBase: ir.Float, BOp: ir.OpAdd, Dst: 6, A: 5},
			{Op: OpStore, K: fk, Arr: 1, A: 4, B: 6},
			{Op: OpIntr, K: fk, Dst: 7, Args: []int{0, 1, 6}, Intr: "fma"},
			{Op: OpJmp, Off: 9},
			{Op: OpIntr, K: fk, Dst: 8, Args: []int{7, 0}, Intr: "isx0", Sem: sharedSem},
			{Op: OpLoad, K: fk, Dst: 9, Arr: 1, A: 4},
			{Op: OpBin, K: fk, OpBase: ir.Float, BOp: ir.OpAdd, Dst: 10, A: 8, B: 9},
			{Op: OpRet},
		},
	}
}

func sharedArgs() []interface{} {
	x := ir.NewFloatArray(1, 8)
	for i := range x.F {
		x.F[i] = 1.5*float64(i) - 2
	}
	return []interface{}{1.25, -0.75, x}
}

// withMined returns a copy of base named name that also declares the
// mined instructions names, each with sharedSem.
func withMined(base *pdesc.Processor, name string, names ...string) *pdesc.Processor {
	p := base.Clone()
	p.Name = name
	for _, n := range names {
		p.Instructions = append(p.Instructions, pdesc.Instr{Name: n, Cycles: 2, Semantics: sharedSem})
	}
	return p
}

// withoutInstr returns a copy of base named name that lacks the
// instruction drop. The list is rebuilt rather than edited in place: a
// same-length in-place edit would keep the processor's stale
// instruction index.
func withoutInstr(base *pdesc.Processor, name, drop string) *pdesc.Processor {
	p := base.Clone()
	p.Name = name
	p.Instructions = slices.DeleteFunc(slices.Clone(p.Instructions), func(in pdesc.Instr) bool { return in.Name == drop })
	return p
}

// sharedProcs are the processors one translation of sharedProg serves:
// targets lacking fma or isx0 (their blocks are handed to the reference
// interpreter), targets of different SIMD widths (zero-fill), and a
// cost-repriced clone (block costs and issue costs).
func sharedProcs() []*pdesc.Processor {
	repriced := withMined(pdesc.Builtin("dspasip"), "dspasip-repriced", "isx0")
	repriced.Costs = map[string]int{"load": 3, "vstore": 5, "alloc": 4, "vreduce": 6, "jump": 2}
	for i := range repriced.Instructions {
		switch in := &repriced.Instructions[i]; in.Name {
		case "vlds":
			in.Cycles = 7
		case "fma":
			in.Cycles = 4
		case "isx0":
			in.Cycles = 9
		}
	}
	noFMA := withMined(withoutInstr(pdesc.Builtin("dspasip"), "", "fma"), "dspasip-nofma", "isx0")
	return []*pdesc.Processor{
		pdesc.Builtin("scalar"),
		pdesc.Builtin("dspasip"),
		withMined(pdesc.Builtin("dspasip"), "dspasip+isx0", "isx0"),
		withMined(pdesc.Builtin("wide8"), "wide8+isx0", "isx0"),
		repriced,
		noFMA,
	}
}

// TestSharedTranslationEquivalence runs one *Program, in alternating
// processor order, on processors that differ in every price a run
// reads, under every cycle limit up to the longest run (so limits land
// inside the alloc's block and inside each intrinsic's block), and
// requires the compiled engine to agree with the reference engine on
// every observable. The program is translated exactly once.
func TestSharedTranslationEquivalence(t *testing.T) {
	prog := sharedProg()
	procs := sharedProcs()
	args := sharedArgs()
	before := CompiledStats().Translations

	// Full runs: the targets lacking an intrinsic fault at it, the
	// others complete.
	wantFault := map[string]string{
		"scalar":        `vm fault at pc=7: intrinsic "fma" not provided`,
		"dspasip":       `vm fault at pc=9: intrinsic "isx0" not provided`,
		"dspasip-nofma": `vm fault at pc=7: intrinsic "fma" not provided`,
	}
	var longest int64
	for _, p := range procs {
		m, _, err := runEngine(prog, p, EngineReference, 0, args)
		if want := wantFault[p.Name]; want == "" && err != nil || want != "" && (err == nil || !strings.HasPrefix(err.Error(), want)) {
			t.Fatalf("%s: reference run error %v, want %q", p.Name, err, want)
		}
		if m.Cycles > longest {
			longest = m.Cycles
		}
	}

	for lim := int64(1); lim <= longest+1; lim++ {
		for i := range procs {
			p := procs[i]
			if lim%2 == 0 {
				p = procs[len(procs)-1-i]
			}
			if _, err := enginesDiff(prog, p, lim, args); err != nil {
				t.Fatalf("%s, cycle limit %d: %v", p.Name, lim, err)
			}
		}
	}
	for _, p := range procs {
		if _, err := enginesDiff(prog, p, 0, args); err != nil {
			t.Fatalf("%s, default cycle limit: %v", p.Name, err)
		}
	}
	if n := CompiledStats().Translations - before; n != 1 {
		t.Errorf("%d translations of one Program, want 1", n)
	}
}

// TestSharedTranslationRace runs one translation from 8 goroutines on
// processors that resolve the program's charge symbols pairwise
// differently (a missing intrinsic, other class and issue costs,
// another SIMD width), so pooled scratch arenas are reused across
// processors; under -race this checks the pool, each run's resolved
// charges and the carried translation. Every run must match its
// processor's reference run.
func TestSharedTranslationRace(t *testing.T) {
	procs := sharedProcs()
	cp := CompiledFor(sharedProg())
	seen := map[string]string{}
	for _, p := range procs {
		key := fmt.Sprint(cp.charges(nil, p), newZeroFill(p))
		if other, dup := seen[key]; dup {
			t.Fatalf("%s and %s charge the program alike", other, p.Name)
		}
		seen[key] = p.Name
	}

	prog := cp.prog
	args := sharedArgs()
	type run struct {
		out    []interface{}
		err    error
		cycles int64
		exec   int64
		counts map[string]int64
	}
	want := make([]run, len(procs))
	for i, p := range procs {
		m, out, err := runEngine(prog, p, EngineReference, 0, args)
		want[i] = run{out, err, m.Cycles, m.Executed, m.ClassCounts}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				pi := (g + i) % len(procs)
				m := NewMachine(procs[pi])
				out, err := m.Run(prog, cloneArgs(args)...)
				w := want[pi]
				var diff error
				switch {
				case (err == nil) != (w.err == nil) || err != nil && err.Error() != w.err.Error():
					diff = fmt.Errorf("error %v, reference %v", err, w.err)
				case m.Cycles != w.cycles || m.Executed != w.exec || !reflect.DeepEqual(m.ClassCounts, w.counts):
					diff = fmt.Errorf("cycles/executed %d/%d, counts %v; reference %d/%d, %v",
						m.Cycles, m.Executed, m.ClassCounts, w.cycles, w.exec, w.counts)
				case err == nil:
					diff = resultsDiff(w.out, out)
				}
				if diff != nil {
					t.Errorf("goroutine %d, %s: %v", g, procs[pi].Name, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
