package vm

import (
	"fmt"

	"mat2c/internal/ir"
)

// Lower translates an IR function into a VM program.
func Lower(f *ir.Func) (*Program, error) {
	p, _, err := lowerFunc(f, false)
	return p, err
}

// LowerWithSites lowers f and additionally returns a site map: a slice
// parallel to the program's instructions where sites[pc] is the IR
// expression whose value instruction pc computes, or nil for control
// flow, moves, and other instructions that are not the final step of an
// expression. The map is compacted alongside the peephole pass, so a
// completed run's per-pc execution counts (Events.Blocks: each pc runs
// as often as its block completed) can be attributed to IR expressions
// directly.
func LowerWithSites(f *ir.Func) (*Program, []ir.Expr, error) {
	return lowerFunc(f, true)
}

func lowerFunc(f *ir.Func, withSites bool) (*Program, []ir.Expr, error) {
	l := &vmLowerer{
		prog:        &Program{Name: f.Name},
		scalars:     map[*ir.Sym]int{},
		arrays:      map[*ir.Sym]int{},
		recordSites: withSites,
	}
	if err := l.run(f); err != nil {
		return nil, nil, err
	}
	l.sites = peephole(l.prog, l.sites)
	return l.prog, l.sites, nil
}

type loopCtx struct {
	breakJumps    []int // OpJmp instr indices to patch to loop exit
	continueJumps []int // OpJmp instr indices to patch to loop latch
}

type vmLowerer struct {
	prog        *Program
	scalars     map[*ir.Sym]int
	arrays      map[*ir.Sym]int
	loops       []*loopCtx
	retJmps     []int
	recordSites bool
	sites       []ir.Expr // parallel to prog.Instrs when recordSites
}

func (l *vmLowerer) newReg() int {
	r := l.prog.NumRegs
	l.prog.NumRegs++
	return r
}

func (l *vmLowerer) regOf(s *ir.Sym) int {
	if r, ok := l.scalars[s]; ok {
		return r
	}
	r := l.newReg()
	l.scalars[s] = r
	return r
}

func (l *vmLowerer) arrOf(s *ir.Sym) int {
	if a, ok := l.arrays[s]; ok {
		return a
	}
	a := len(l.prog.Arrays)
	l.prog.Arrays = append(l.prog.Arrays, ArraySlot{Name: s.String(), Elem: s.Elem})
	l.arrays[s] = a
	return a
}

func (l *vmLowerer) emit(in Instr) int {
	l.prog.Instrs = append(l.prog.Instrs, in)
	if l.recordSites {
		l.sites = append(l.sites, nil)
	}
	return len(l.prog.Instrs) - 1
}

func (l *vmLowerer) here() int { return len(l.prog.Instrs) }

func (l *vmLowerer) patch(idx, target int) { l.prog.Instrs[idx].Off = target }

func (l *vmLowerer) run(f *ir.Func) error {
	for _, p := range f.Params {
		if p.IsArray {
			l.prog.Params = append(l.prog.Params, Param{Name: p.Name, IsArray: true, Elem: p.Elem, Arr: l.arrOf(p), Reg: -1})
		} else {
			l.prog.Params = append(l.prog.Params, Param{Name: p.Name, Elem: p.Elem, Reg: l.regOf(p), Arr: -1})
		}
	}
	for _, r := range f.Results {
		if r.IsArray {
			l.prog.Results = append(l.prog.Results, Param{Name: r.Name, IsArray: true, Elem: r.Elem, Arr: l.arrOf(r), Reg: -1})
		} else {
			l.prog.Results = append(l.prog.Results, Param{Name: r.Name, Elem: r.Elem, Reg: l.regOf(r), Arr: -1})
		}
	}
	if err := l.stmts(f.Body); err != nil {
		return err
	}
	end := l.here()
	for _, j := range l.retJmps {
		l.patch(j, end)
	}
	l.emit(Instr{Op: OpRet})
	return nil
}

func (l *vmLowerer) stmts(stmts []ir.Stmt) error {
	for _, s := range stmts {
		if err := l.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (l *vmLowerer) stmt(s ir.Stmt) error {
	switch s := s.(type) {
	case *ir.Assign:
		src, err := l.expr(s.Src)
		if err != nil {
			return err
		}
		dst := l.regOf(s.Dst)
		want := s.Dst.Kind()
		got := s.Src.Kind()
		if got != want {
			l.emit(Instr{Op: OpConv, K: want, Dst: dst, A: src})
		} else {
			l.emit(Instr{Op: OpMov, K: want, Dst: dst, A: src})
		}
		return nil

	case *ir.Store:
		idx, err := l.expr(s.Index)
		if err != nil {
			return err
		}
		val, err := l.expr(s.Val)
		if err != nil {
			return err
		}
		l.emit(Instr{Op: OpStore, K: s.Val.Kind(), Arr: l.arrOf(s.Arr), A: idx, B: val})
		return nil

	case *ir.Alloc:
		rows, err := l.expr(s.Rows)
		if err != nil {
			return err
		}
		cols, err := l.expr(s.Cols)
		if err != nil {
			return err
		}
		l.emit(Instr{Op: OpAlloc, Arr: l.arrOf(s.Arr), A: rows, B: cols})
		return nil

	case *ir.For:
		return l.forStmt(s)
	case *ir.While:
		return l.whileStmt(s)
	case *ir.If:
		return l.ifStmt(s)

	case *ir.Break:
		if len(l.loops) == 0 {
			return fmt.Errorf("break outside loop")
		}
		ctx := l.loops[len(l.loops)-1]
		ctx.breakJumps = append(ctx.breakJumps, l.emit(Instr{Op: OpJmp}))
		return nil
	case *ir.Continue:
		if len(l.loops) == 0 {
			return fmt.Errorf("continue outside loop")
		}
		ctx := l.loops[len(l.loops)-1]
		ctx.continueJumps = append(ctx.continueJumps, l.emit(Instr{Op: OpJmp}))
		return nil
	case *ir.Return:
		l.retJmps = append(l.retJmps, l.emit(Instr{Op: OpJmp}))
		return nil
	}
	return fmt.Errorf("unsupported statement %T", s)
}

// forStmt lowers a counted loop:
//
//	    <lo>, <hi>, v = lo
//	head: t = (step>0 ? v<=hi : v>=hi); jz t, end
//	    body
//	latch: v = v + step; jmp head
//	end:
func (l *vmLowerer) forStmt(s *ir.For) error {
	lo, err := l.expr(s.Lo)
	if err != nil {
		return err
	}
	hi, err := l.expr(s.Hi)
	if err != nil {
		return err
	}
	v := l.regOf(s.Var)
	l.emit(Instr{Op: OpMov, K: ir.KInt, Dst: v, A: lo})

	stepReg := l.newReg()
	l.emit(Instr{Op: OpConst, K: ir.KInt, Dst: stepReg, ImmI: s.Step})

	head := l.here()
	cond := l.newReg()
	cmp := ir.OpLe
	if s.Step < 0 {
		cmp = ir.OpGe
	}
	l.emit(Instr{Op: OpBin, BOp: cmp, K: ir.KInt, OpBase: ir.Int, Dst: cond, A: v, B: hi})
	exitJz := l.emit(Instr{Op: OpJz, A: cond})

	ctx := &loopCtx{}
	l.loops = append(l.loops, ctx)
	if err := l.stmts(s.Body); err != nil {
		return err
	}
	l.loops = l.loops[:len(l.loops)-1]

	latch := l.here()
	l.emit(Instr{Op: OpBin, BOp: ir.OpAdd, K: ir.KInt, OpBase: ir.Int, Dst: v, A: v, B: stepReg})
	l.emit(Instr{Op: OpJmp, Off: head})
	end := l.here()

	l.patch(exitJz, end)
	for _, j := range ctx.breakJumps {
		l.patch(j, end)
	}
	for _, j := range ctx.continueJumps {
		l.patch(j, latch)
	}
	return nil
}

func (l *vmLowerer) whileStmt(s *ir.While) error {
	head := l.here()
	cond, err := l.expr(s.Cond)
	if err != nil {
		return err
	}
	exitJz := l.emit(Instr{Op: OpJz, A: cond})

	ctx := &loopCtx{}
	l.loops = append(l.loops, ctx)
	if err := l.stmts(s.Body); err != nil {
		return err
	}
	l.loops = l.loops[:len(l.loops)-1]

	l.emit(Instr{Op: OpJmp, Off: head})
	end := l.here()
	l.patch(exitJz, end)
	for _, j := range ctx.breakJumps {
		l.patch(j, end)
	}
	for _, j := range ctx.continueJumps {
		l.patch(j, head)
	}
	return nil
}

func (l *vmLowerer) ifStmt(s *ir.If) error {
	cond, err := l.expr(s.Cond)
	if err != nil {
		return err
	}
	elseJz := l.emit(Instr{Op: OpJz, A: cond})
	if err := l.stmts(s.Then); err != nil {
		return err
	}
	if len(s.Else) == 0 {
		l.patch(elseJz, l.here())
		return nil
	}
	endJmp := l.emit(Instr{Op: OpJmp})
	l.patch(elseJz, l.here())
	if err := l.stmts(s.Else); err != nil {
		return err
	}
	l.patch(endJmp, l.here())
	return nil
}

// expr emits code computing e and returns the result register. Every
// case of exprInner except VarRef ends with a freshly emitted
// instruction that computes e, which is what makes the site map below
// sound: the last instruction is the one whose dynamic execution count
// measures how often e was evaluated.
func (l *vmLowerer) expr(e ir.Expr) (int, error) {
	r, err := l.exprInner(e)
	if err == nil && l.recordSites {
		if _, isVar := e.(*ir.VarRef); !isVar {
			l.sites[len(l.sites)-1] = e
		}
	}
	return r, err
}

func (l *vmLowerer) exprInner(e ir.Expr) (int, error) {
	switch x := e.(type) {
	case *ir.ConstInt:
		r := l.newReg()
		l.emit(Instr{Op: OpConst, K: ir.KInt, Dst: r, ImmI: x.V})
		return r, nil
	case *ir.ConstFloat:
		r := l.newReg()
		l.emit(Instr{Op: OpConst, K: ir.KFloat, Dst: r, ImmF: x.V})
		return r, nil
	case *ir.ConstComplex:
		r := l.newReg()
		l.emit(Instr{Op: OpConst, K: ir.KComplex, Dst: r, ImmC: x.V})
		return r, nil
	case *ir.VarRef:
		return l.regOf(x.Sym), nil
	case *ir.Load:
		idx, err := l.expr(x.Index)
		if err != nil {
			return 0, err
		}
		r := l.newReg()
		l.emit(Instr{Op: OpLoad, K: ir.Kind{Base: x.Arr.Elem, Lanes: 1}, Dst: r, Arr: l.arrOf(x.Arr), A: idx})
		return r, nil
	case *ir.VecLoad:
		idx, err := l.expr(x.Index)
		if err != nil {
			return 0, err
		}
		r := l.newReg()
		l.emit(Instr{Op: OpVLoad, K: x.K, Dst: r, Arr: l.arrOf(x.Arr), A: idx, ImmI: x.StrideOr1()})
		return r, nil
	case *ir.Dim:
		r := l.newReg()
		l.emit(Instr{Op: OpDim, K: ir.KInt, Dst: r, Arr: l.arrOf(x.Arr), ImmI: int64(x.Which)})
		return r, nil
	case *ir.Bin:
		return l.binExpr(x)
	case *ir.Un:
		a, err := l.expr(x.X)
		if err != nil {
			return 0, err
		}
		r := l.newReg()
		switch x.Op {
		case ir.OpToFloat, ir.OpToComplex:
			l.emit(Instr{Op: OpConv, K: x.K, Dst: r, A: a})
		default:
			// OpToInt stays a real operation: it rounds, while OpConv
			// (assignment conversion) truncates.
			l.emit(Instr{Op: OpUn, BOp: x.Op, K: x.K, OpBase: x.X.Kind().Base, Dst: r, A: a})
		}
		return r, nil
	case *ir.Broadcast:
		a, err := l.expr(x.X)
		if err != nil {
			return 0, err
		}
		r := l.newReg()
		l.emit(Instr{Op: OpSplat, K: x.K, OpBase: x.X.Kind().Base, Dst: r, A: a})
		return r, nil
	case *ir.Ramp:
		a, err := l.expr(x.Base)
		if err != nil {
			return 0, err
		}
		r := l.newReg()
		l.emit(Instr{Op: OpRamp, K: x.K, Dst: r, A: a, ImmI: x.Step})
		return r, nil
	case *ir.Reduce:
		a, err := l.expr(x.X)
		if err != nil {
			return 0, err
		}
		r := l.newReg()
		l.emit(Instr{Op: OpReduce, BOp: x.Op, K: x.K, OpBase: x.X.Kind().Base, Dst: r, A: a})
		return r, nil
	case *ir.Intrinsic:
		args := make([]int, len(x.Args))
		for i, a := range x.Args {
			r, err := l.expr(a)
			if err != nil {
				return 0, err
			}
			args[i] = r
		}
		r := l.newReg()
		l.emit(Instr{Op: OpIntr, Intr: x.Name, Sem: x.Sem, K: x.K, Dst: r, Args: args})
		return r, nil
	case *ir.Select:
		c, err := l.expr(x.Cond)
		if err != nil {
			return 0, err
		}
		th, err := l.expr(x.Then)
		if err != nil {
			return 0, err
		}
		el, err := l.expr(x.Else)
		if err != nil {
			return 0, err
		}
		r := l.newReg()
		l.emit(Instr{Op: OpSel, K: x.K, Dst: r, Args: []int{c, th, el}})
		return r, nil
	}
	return 0, fmt.Errorf("unsupported expression %T", e)
}

// binExpr emits a binary op, inserting conversions so both operands sit
// at the common computation base.
func (l *vmLowerer) binExpr(x *ir.Bin) (int, error) {
	a, err := l.expr(x.X)
	if err != nil {
		return 0, err
	}
	b, err := l.expr(x.Y)
	if err != nil {
		return 0, err
	}
	ka, kb := x.X.Kind(), x.Y.Kind()
	base := ka.Base
	if kb.Base > base {
		base = kb.Base
	}
	lanes := x.K.Lanes
	if ka.Base != base {
		na := l.newReg()
		l.emit(Instr{Op: OpConv, K: ir.Kind{Base: base, Lanes: ka.Lanes}, Dst: na, A: a})
		a = na
	}
	if kb.Base != base {
		nb := l.newReg()
		l.emit(Instr{Op: OpConv, K: ir.Kind{Base: base, Lanes: kb.Lanes}, Dst: nb, A: b})
		b = nb
	}
	// Scalar operand of a vector op is splat on the fly by the machine
	// (no extra instruction: DSP vector units take a scalar register
	// operand), matching the reference evaluator's broadcasting.
	r := l.newReg()
	l.emit(Instr{Op: OpBin, BOp: x.Op, K: ir.Kind{Base: x.K.Base, Lanes: lanes}, OpBase: base, Dst: r, A: a, B: b})
	return r, nil
}
