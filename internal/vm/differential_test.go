package vm

import (
	"math/rand"
	"testing"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
	"mat2c/internal/sema"
)

// TestVMValidateLoweredPrograms validates every lowered benchmark-ish
// program structurally.
func TestVMValidateLoweredPrograms(t *testing.T) {
	srcs := []struct {
		src    string
		params []interface{}
	}{}
	_ = srcs
	f, _ := buildIR(t, `function y = f(x)
n = length(x);
y = zeros(1, n);
for i = 1:n
    y(i) = x(i) * 2;
end
end`, "dspasip", true, dynVec())
	prog, err := Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Errorf("lowered program invalid: %v", err)
	}
}

func TestVMValidateCatchesCorruption(t *testing.T) {
	f, _ := buildIR(t, "function y = f(a)\ny = a + 1;\nend", "scalar", false,
		sema.RealScalar)
	prog, err := Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cloneProgram(prog)
	bad.Instrs[0].Dst = 9999
	if bad.Instrs[0].Op == OpJmp || bad.Instrs[0].Op == OpRet {
		t.Skip("first instruction has no Dst")
	}
	if err := bad.Validate(); err == nil {
		t.Error("corrupted register not caught")
	}
	bad2 := cloneProgram(prog)
	for i := range bad2.Instrs {
		if bad2.Instrs[i].Op == OpJz || bad2.Instrs[i].Op == OpJmp {
			bad2.Instrs[i].Off = len(bad2.Instrs) + 5
			if err := bad2.Validate(); err == nil {
				t.Error("corrupted branch target not caught")
			}
			break
		}
	}
}

// cloneProgram copies prog's fields into a fresh Program with its own
// instruction slice (a Program is never copied by value).
func cloneProgram(prog *Program) *Program {
	return &Program{
		Name:    prog.Name,
		Instrs:  append([]Instr(nil), prog.Instrs...),
		NumRegs: prog.NumRegs,
		Arrays:  prog.Arrays,
		Params:  prog.Params,
		Results: prog.Results,
	}
}

// ----- random expression differential testing -----

// genExpr builds a random scalar float IR expression over the given
// parameter symbols, with bounded depth and only total operations (no
// div/rem to avoid zero-denominator noise).
func genExpr(r *rand.Rand, params []*ir.Sym, depth int) ir.Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return ir.CF(float64(r.Intn(9)) - 4)
		default:
			return ir.V(params[r.Intn(len(params))])
		}
	}
	switch r.Intn(8) {
	case 0, 1, 2:
		ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpMin, ir.OpMax}
		return &ir.Bin{Op: ops[r.Intn(len(ops))], K: ir.KFloat,
			X: genExpr(r, params, depth-1), Y: genExpr(r, params, depth-1)}
	case 3:
		ops := []ir.Op{ir.OpNeg, ir.OpAbs, ir.OpSin, ir.OpCos, ir.OpTanh,
			ir.OpAtan, ir.OpFloor, ir.OpCeil, ir.OpSign}
		return &ir.Un{Op: ops[r.Intn(len(ops))], K: ir.KFloat,
			X: genExpr(r, params, depth-1)}
	case 4:
		return &ir.Bin{Op: ir.OpAtan2, K: ir.KFloat,
			X: genExpr(r, params, depth-1), Y: genExpr(r, params, depth-1)}
	case 5:
		// Comparison feeding arithmetic through a conversion.
		cmp := &ir.Bin{Op: ir.OpLt, K: ir.KInt,
			X: genExpr(r, params, depth-1), Y: genExpr(r, params, depth-1)}
		return ir.U(ir.OpToFloat, cmp, ir.KFloat)
	default:
		return &ir.Bin{Op: ir.OpAdd, K: ir.KFloat,
			X: genExpr(r, params, depth-1), Y: genExpr(r, params, depth-1)}
	}
}

// TestVMRandomExprDifferential builds hundreds of random scalar
// expressions and checks the VM computes exactly what the reference
// evaluator computes.
func TestVMRandomExprDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	proc := pdesc.Builtin("dspasip")
	for trial := 0; trial < 400; trial++ {
		f := ir.NewFunc("rnd")
		a := f.NewSym("a", ir.Float, false)
		b := f.NewSym("b", ir.Float, false)
		c := f.NewSym("c", ir.Float, false)
		y := f.NewSym("y", ir.Float, false)
		f.Params = []*ir.Sym{a, b, c}
		f.Results = []*ir.Sym{y}
		f.Body = []ir.Stmt{&ir.Assign{Dst: y, Src: genExpr(r, f.Params, 5)}}

		args := []interface{}{r.NormFloat64() * 3, r.NormFloat64() * 3, r.NormFloat64() * 3}

		ev := &ir.Evaluator{}
		want, err := ev.Run(f, args...)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		prog, err := Lower(f)
		if err != nil {
			t.Fatalf("trial %d: lower: %v", trial, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("trial %d: validate: %v", trial, err)
		}
		m := NewMachine(proc)
		got, err := m.Run(prog, args...)
		if err != nil {
			t.Fatalf("trial %d: vm: %v", trial, err)
		}
		if !nearlyEq(want[0], got[0]) {
			t.Errorf("trial %d: reference %v, vm %v\nIR: %s",
				trial, want[0], got[0], ir.ExprStr(f.Body[0].(*ir.Assign).Src))
		}
	}
}
