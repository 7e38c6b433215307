package vectorize

import (
	"math"

	"mat2c/internal/ir"
)

// emit builds the vectorized replacement for loop: preheader, main
// vector loop stepping by lanes, horizontal reduction combines, and a
// scalar epilogue running the original body for the remainder.
func (v *vectorizer) emit(loop *ir.For, classified []vstmt, reds []*reduction, lanes int) []ir.Stmt {
	var out []ir.Stmt
	k := loop.Var
	W := int64(lanes)

	hoist := func(e ir.Expr, name string) ir.Expr {
		switch e.(type) {
		case *ir.ConstInt, *ir.VarRef:
			return e
		}
		t := v.fn.NewSym(name, ir.Int, false)
		v.fn.Locals = append(v.fn.Locals, t)
		out = append(out, &ir.Assign{Dst: t, Src: e})
		return ir.V(t)
	}

	lo := hoist(loop.Lo, "vlo")
	hi := hoist(loop.Hi, "vhi")
	// trip = max(hi - lo + 1, 0); main = (trip / W) * W
	trip := ir.B(ir.OpMax, ir.IAdd(ir.ISub(hi, lo), ir.CI(1)), ir.CI(0))
	main := hoist(ir.IMul(ir.B(ir.OpDiv, trip, ir.CI(W)), ir.CI(W)), "vmain")
	mainHi := hoist(ir.ISub(ir.IAdd(lo, main), ir.CI(1)), "vmhi")

	// Vector accumulators.
	for _, r := range reds {
		vacc := v.fn.NewSym(r.acc.Name+"_v", r.acc.Elem, false)
		vacc.Lanes = lanes
		v.fn.Locals = append(v.fn.Locals, vacc)
		r.vacc = vacc
		out = append(out, &ir.Assign{Dst: vacc,
			Src: &ir.Broadcast{X: reductionIdentity(r.op, r.acc.Elem), K: ir.Kind{Base: r.acc.Elem, Lanes: lanes}}})
	}

	// Main vector loop. Predicated statements (if-conversion) blend with
	// a lane-wise select: conditional stores read-modify-write their own
	// address, conditional reductions keep the accumulator lane where the
	// predicate is false.
	var body []ir.Stmt
	for _, c := range classified {
		var mask ir.Expr
		if c.cond != nil {
			mask = v.vec(c.cond, k, lanes)
		}
		if c.store != nil {
			val := v.vec(c.store.Val, k, lanes)
			if mask != nil {
				old := &ir.VecLoad{Arr: c.store.Arr, Index: c.store.Index,
					K: ir.Kind{Base: c.store.Arr.Elem, Lanes: lanes}}
				val = &ir.Select{Cond: mask, Then: val, Else: old,
					K: ir.Kind{Base: c.store.Arr.Elem, Lanes: lanes}}
			}
			body = append(body, &ir.Store{Arr: c.store.Arr, Index: c.store.Index, Val: val})
			continue
		}
		r := c.red
		vk := ir.Kind{Base: r.acc.Elem, Lanes: lanes}
		upd := ir.Expr(&ir.Bin{Op: r.op, X: ir.V(r.vacc), Y: v.vec(r.rest, k, lanes), K: vk})
		if mask != nil {
			upd = &ir.Select{Cond: mask, Then: upd, Else: ir.V(r.vacc), K: vk}
		}
		body = append(body, &ir.Assign{Dst: r.vacc, Src: upd})
	}
	out = append(out, &ir.For{Var: k, Lo: lo, Hi: mainHi, Step: W, Body: body})

	// Horizontal reductions: acc = acc ⊕ reduce(vacc). The accumulator
	// still holds its pre-loop value here.
	for _, r := range reds {
		red := &ir.Reduce{Op: r.op, X: ir.V(r.vacc), K: ir.Kind{Base: r.acc.Elem, Lanes: 1}}
		out = append(out, &ir.Assign{Dst: r.acc,
			Src: &ir.Bin{Op: r.op, X: ir.V(r.acc), Y: red, K: ir.Kind{Base: r.acc.Elem, Lanes: 1}}})
	}

	// Scalar epilogue with the original body.
	epiBody := make([]ir.Stmt, len(loop.Body))
	for i, s := range loop.Body {
		epiBody[i] = ir.CloneStmt(s)
	}
	out = append(out, &ir.For{Var: k, Lo: ir.IAdd(lo, main), Hi: hi, Step: 1, Body: epiBody})
	return out
}

func reductionIdentity(op ir.Op, elem ir.BaseKind) ir.Expr {
	switch op {
	case ir.OpAdd:
		if elem == ir.Complex {
			return ir.CC(0)
		}
		return ir.CF(0)
	case ir.OpMin:
		return ir.CF(math.Inf(1))
	case ir.OpMax:
		return ir.CF(math.Inf(-1))
	}
	return ir.CF(0)
}

// vec widens a substituted scalar expression to lanes. Loop-invariant
// subtrees become broadcasts; stride-1 loads become vector loads; the
// counter becomes a ramp.
func (v *vectorizer) vec(e ir.Expr, k *ir.Sym, lanes int) ir.Expr {
	// Whole-subtree invariance: broadcast once.
	if !readsVar(e, k) {
		return &ir.Broadcast{X: e, K: ir.Kind{Base: e.Kind().Base, Lanes: lanes}}
	}
	switch x := e.(type) {
	case *ir.VarRef:
		// x.Sym == k here (invariant case handled above).
		return &ir.Ramp{Base: ir.V(k), Step: 1, K: ir.Kind{Base: ir.Int, Lanes: lanes}}
	case *ir.Load:
		st := affineStride(x.Index, k)
		if st != nil && *st == 0 {
			return &ir.Broadcast{X: x, K: ir.Kind{Base: x.Arr.Elem, Lanes: lanes}}
		}
		stride := int64(1)
		if st != nil {
			stride = *st
		}
		// Stride 1 is a plain vector load; other strides were admitted
		// by legality only if the target has a strided-load instruction.
		return &ir.VecLoad{Arr: x.Arr, Index: x.Index, Stride: stride,
			K: ir.Kind{Base: x.Arr.Elem, Lanes: lanes}}
	case *ir.Bin:
		return &ir.Bin{Op: x.Op,
			X: v.vec(x.X, k, lanes),
			Y: v.vec(x.Y, k, lanes),
			K: ir.Kind{Base: x.K.Base, Lanes: lanes}}
	case *ir.Un:
		return &ir.Un{Op: x.Op, X: v.vec(x.X, k, lanes),
			K: ir.Kind{Base: x.K.Base, Lanes: lanes}}
	}
	// Unreachable given the legality checks; broadcast as a safe default.
	return &ir.Broadcast{X: e, K: ir.Kind{Base: e.Kind().Base, Lanes: lanes}}
}
