package opt

import (
	"mat2c/internal/ir"
)

// Optimize runs the scalar pipeline to a fixpoint (bounded). Level 0
// disables everything; level 1 and above enables the full pipeline.
func Optimize(f *ir.Func, level int) {
	if level <= 0 {
		return
	}
	for i := 0; i < 10; i++ {
		changed := Fold(f)
		changed = SimplifyControl(f) || changed
		changed = CopyProp(f) || changed
		changed = CSE(f) || changed
		changed = LICM(f) || changed
		changed = Unroll(f) || changed
		changed = DCE(f) || changed
		if !changed {
			return
		}
	}
}

// ----- Control-flow simplification -----

// SimplifyControl resolves conditionals and loops with constant
// conditions: an If takes one arm, a While with a false condition
// disappears (a constant-true While is left alone — it may be an
// intended wait loop and termination is the program's business).
func SimplifyControl(f *ir.Func) bool {
	sc := &simplifyControl{}
	f.Body = sc.block(f.Body)
	return sc.changed
}

type simplifyControl struct{ changed bool }

func constTruth(e ir.Expr) (bool, bool) {
	switch c := e.(type) {
	case *ir.ConstInt:
		return c.V != 0, true
	case *ir.ConstFloat:
		return c.V != 0, true
	case *ir.ConstComplex:
		return c.V != 0, true
	}
	return false, false
}

func (sc *simplifyControl) block(stmts []ir.Stmt) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.If:
			s.Then = sc.block(s.Then)
			s.Else = sc.block(s.Else)
			if truth, ok := constTruth(s.Cond); ok {
				sc.changed = true
				if truth {
					out = append(out, s.Then...)
				} else {
					out = append(out, s.Else...)
				}
				continue
			}
		case *ir.For:
			s.Body = sc.block(s.Body)
		case *ir.While:
			s.Body = sc.block(s.Body)
			if truth, ok := constTruth(s.Cond); ok && !truth {
				sc.changed = true
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// ----- Copy propagation -----

// CopyProp replaces uses of variables that are direct copies of another
// scalar within a block (and in nested constructs where neither side is
// reassigned).
func CopyProp(f *ir.Func) bool {
	cp := &copyProp{}
	cp.block(f.Body, map[*ir.Sym]*ir.Sym{})
	return cp.changed
}

type copyProp struct{ changed bool }

func (cp *copyProp) sub(e ir.Expr, copies map[*ir.Sym]*ir.Sym) ir.Expr {
	return RewriteExpr(e, func(x ir.Expr) ir.Expr {
		if v, ok := x.(*ir.VarRef); ok {
			if src, ok := copies[v.Sym]; ok {
				cp.changed = true
				return ir.V(src)
			}
		}
		return x
	})
}

// invalidate removes pairs whose destination or source is in written.
func invalidateCopies(copies map[*ir.Sym]*ir.Sym, written map[*ir.Sym]bool) {
	for d, s := range copies {
		if written[d] || written[s] {
			delete(copies, d)
		}
	}
}

func cloneCopies(m map[*ir.Sym]*ir.Sym) map[*ir.Sym]*ir.Sym {
	n := make(map[*ir.Sym]*ir.Sym, len(m))
	for k, v := range m {
		n[k] = v
	}
	return n
}

func (cp *copyProp) block(stmts []ir.Stmt, copies map[*ir.Sym]*ir.Sym) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			s.Src = cp.sub(s.Src, copies)
			// Kill pairs involving the destination.
			invalidateCopies(copies, map[*ir.Sym]bool{s.Dst: true})
			if v, ok := s.Src.(*ir.VarRef); ok && v.Sym != s.Dst && !s.Dst.IsArray &&
				s.Dst.Kind() == v.Sym.Kind() {
				copies[s.Dst] = v.Sym
			}
		case *ir.Store:
			s.Index = cp.sub(s.Index, copies)
			s.Val = cp.sub(s.Val, copies)
		case *ir.Alloc:
			s.Rows = cp.sub(s.Rows, copies)
			s.Cols = cp.sub(s.Cols, copies)
		case *ir.For:
			s.Lo = cp.sub(s.Lo, copies)
			s.Hi = cp.sub(s.Hi, copies)
			written := assignedScalars(s.Body)
			written[s.Var] = true
			invalidateCopies(copies, written)
			cp.block(s.Body, cloneCopies(copies))
		case *ir.While:
			written := assignedScalars(s.Body)
			invalidateCopies(copies, written)
			s.Cond = cp.sub(s.Cond, copies)
			cp.block(s.Body, cloneCopies(copies))
		case *ir.If:
			s.Cond = cp.sub(s.Cond, copies)
			cp.block(s.Then, cloneCopies(copies))
			cp.block(s.Else, cloneCopies(copies))
			written := assignedScalars(s.Then)
			for k := range assignedScalars(s.Else) {
				written[k] = true
			}
			invalidateCopies(copies, written)
		}
	}
}

// ----- Common subexpression elimination -----

// CSE reuses earlier block-local computations: when the same pure
// expression is assigned to two scalars, the second becomes a copy.
func CSE(f *ir.Func) bool {
	c := &cse{}
	c.block(f.Body, map[string]*ir.Sym{})
	return c.changed
}

type cse struct{ changed bool }

// cseWorthwhile gates which expressions are tabled.
func cseWorthwhile(e ir.Expr) bool {
	switch e.(type) {
	case *ir.Bin, *ir.Un, *ir.Load, *ir.Dim:
		return true
	}
	return false
}

func pruneAvail(avail map[string]*ir.Sym, writtenScalars, writtenArrays map[*ir.Sym]bool, exprOf map[string]ir.Expr) {
	for k, sym := range avail {
		e := exprOf[k]
		if writtenScalars[sym] || e != nil &&
			(exprReadsScalar(e, writtenScalars) || exprReadsArray(e, writtenArrays)) {
			delete(avail, k)
			delete(exprOf, k)
		}
	}
}

func (c *cse) block(stmts []ir.Stmt, avail map[string]*ir.Sym) {
	exprOf := map[string]ir.Expr{}
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			if cseWorthwhile(s.Src) {
				if sym, ok := avail[key(s.Src)]; ok && sym != s.Dst && sym.Kind() == s.Dst.Kind() {
					s.Src = ir.V(sym)
					c.changed = true
				}
			}
			// Invalidate everything depending on Dst.
			pruneAvail(avail, map[*ir.Sym]bool{s.Dst: true}, nil, exprOf)
			if cseWorthwhile(s.Src) && !s.Dst.IsArray && !exprReadsScalar(s.Src, map[*ir.Sym]bool{s.Dst: true}) {
				k := key(s.Src)
				if _, exists := avail[k]; !exists {
					avail[k] = s.Dst
					exprOf[k] = s.Src
				}
			}
		case *ir.Store:
			pruneAvail(avail, nil, map[*ir.Sym]bool{s.Arr: true}, exprOf)
		case *ir.Alloc:
			pruneAvail(avail, nil, map[*ir.Sym]bool{s.Arr: true}, exprOf)
		case *ir.For:
			pruneAvail(avail, assignedScalarsPlus(s.Body, s.Var), storedArrays(s.Body), exprOf)
			c.block(s.Body, cloneAvail(avail))
		case *ir.While:
			pruneAvail(avail, assignedScalars(s.Body), storedArrays(s.Body), exprOf)
			c.block(s.Body, cloneAvail(avail))
		case *ir.If:
			c.block(s.Then, cloneAvail(avail))
			c.block(s.Else, cloneAvail(avail))
			ws := assignedScalars(s.Then)
			for k := range assignedScalars(s.Else) {
				ws[k] = true
			}
			wa := storedArrays(s.Then)
			for k := range storedArrays(s.Else) {
				wa[k] = true
			}
			pruneAvail(avail, ws, wa, exprOf)
		}
	}
}

func assignedScalarsPlus(stmts []ir.Stmt, extra *ir.Sym) map[*ir.Sym]bool {
	m := assignedScalars(stmts)
	m[extra] = true
	return m
}

func cloneAvail(m map[string]*ir.Sym) map[string]*ir.Sym {
	n := make(map[string]*ir.Sym, len(m))
	for k, v := range m {
		n[k] = v
	}
	return n
}

// ----- Dead code elimination -----

// DCE removes assignments to scalars that are never read and stores to
// arrays that are never loaded (results are always live), plus loops and
// conditionals that became empty.
func DCE(f *ir.Func) bool {
	results := map[*ir.Sym]bool{}
	for _, r := range f.Results {
		results[r] = true
	}
	changed := false
	for {
		used := usedScalars(f.Body)
		loaded := loadedArrays(f.Body)
		c := false
		f.Body = dceBlock(f.Body, used, loaded, results, &c)
		if !c {
			break
		}
		changed = true
	}
	return changed
}

func dceBlock(stmts []ir.Stmt, used, loaded, results map[*ir.Sym]bool, changed *bool) []ir.Stmt {
	out := stmts[:0]
	for _, s := range stmts {
		keep := true
		switch s := s.(type) {
		case *ir.Assign:
			if !used[s.Dst] && !results[s.Dst] {
				keep = false
			}
		case *ir.Store:
			if !loaded[s.Arr] && !results[s.Arr] {
				keep = false
			}
		case *ir.Alloc:
			if !loaded[s.Arr] && !results[s.Arr] {
				keep = false
			}
		case *ir.For:
			s.Body = dceBlock(s.Body, used, loaded, results, changed)
			if len(s.Body) == 0 {
				keep = false
			}
		case *ir.While:
			s.Body = dceBlock(s.Body, used, loaded, results, changed)
			// Never remove a While: an empty body may be an intentional
			// (or buggy) spin; removing would change termination.
		case *ir.If:
			s.Then = dceBlock(s.Then, used, loaded, results, changed)
			s.Else = dceBlock(s.Else, used, loaded, results, changed)
			if len(s.Then) == 0 && len(s.Else) == 0 {
				keep = false
			}
		}
		if keep {
			out = append(out, s)
		} else {
			*changed = true
		}
	}
	return out
}

// ----- Loop-invariant code motion -----

// LICM hoists invariant, non-faulting subexpressions out of For bodies
// into fresh preheader temporaries. Only expressions over scalars are
// moved (no memory reads), so hoisting past a zero-trip loop is safe.
func LICM(f *ir.Func) bool {
	l := &licm{fn: f}
	f.Body = l.block(f.Body)
	return l.changed
}

type licm struct {
	fn      *ir.Func
	changed bool
	tempN   int
}

func (l *licm) block(stmts []ir.Stmt) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.For:
			s.Body = l.block(s.Body)
			pre := l.hoistLoop(s)
			out = append(out, pre...)
			out = append(out, s)
			continue
		case *ir.While:
			s.Body = l.block(s.Body)
		case *ir.If:
			s.Then = l.block(s.Then)
			s.Else = l.block(s.Else)
		}
		out = append(out, s)
	}
	return out
}

// hoistLoop extracts invariant subexpressions of the loop body, returning
// preheader statements.
func (l *licm) hoistLoop(loop *ir.For) []ir.Stmt {
	written := assignedScalars(loop.Body)
	written[loop.Var] = true
	var pre []ir.Stmt
	hoisted := map[string]*ir.Sym{}

	hoistable := func(e ir.Expr) bool {
		switch e.(type) {
		case *ir.Bin, *ir.Un:
		default:
			return false
		}
		if e.Kind().Lanes > 1 || mayFault(e) || hasLoad(e) {
			return false
		}
		// Must not read anything written in the loop.
		return !exprReadsScalar(e, written)
	}

	// Count occurrences of hoistable subexpressions; hoist those with
	// non-trivial structure.
	rewrite := func(e ir.Expr) ir.Expr {
		return RewriteExpr(e, func(x ir.Expr) ir.Expr {
			if !hoistable(x) {
				return x
			}
			// Only hoist expressions with at least one variable (pure
			// constants are already folded) and some depth.
			if !nontrivial(x) {
				return x
			}
			k := key(x)
			sym, ok := hoisted[k]
			if !ok {
				l.tempN++
				sym = l.fn.NewSym("li", x.Kind().Base, false)
				l.fn.Locals = append(l.fn.Locals, sym)
				pre = append(pre, &ir.Assign{Dst: sym, Src: x})
				hoisted[k] = sym
			}
			l.changed = true
			return ir.V(sym)
		})
	}
	WalkStmts(loop.Body, func(s ir.Stmt) { RewriteStmtExprs(s, rewrite) })
	return pre
}

// nontrivial reports whether e is worth a temp: an operation whose
// operands include a variable.
func nontrivial(e ir.Expr) bool {
	hasVar := false
	WalkExpr(e, func(x ir.Expr) {
		if _, ok := x.(*ir.VarRef); ok {
			hasVar = true
		}
	})
	return hasVar
}

// ----- Loop unrolling -----

const (
	unrollMaxTrips = 4
	unrollMaxBody  = 8
)

// Unroll fully expands tiny constant-trip loops, enabling further
// folding (e.g. loops copying matrix literals).
func Unroll(f *ir.Func) bool {
	u := &unroller{}
	f.Body = u.block(f.Body)
	return u.changed
}

type unroller struct{ changed bool }

func (u *unroller) block(stmts []ir.Stmt) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.For:
			s.Body = u.block(s.Body)
			if exp, ok := u.tryUnroll(s); ok {
				out = append(out, exp...)
				u.changed = true
				continue
			}
		case *ir.While:
			s.Body = u.block(s.Body)
		case *ir.If:
			s.Then = u.block(s.Then)
			s.Else = u.block(s.Else)
		}
		out = append(out, s)
	}
	return out
}

func (u *unroller) tryUnroll(s *ir.For) ([]ir.Stmt, bool) {
	lo, lok := cint(s.Lo)
	hi, hok := cint(s.Hi)
	if !lok || !hok || s.Step == 0 {
		return nil, false
	}
	var trips int64
	if s.Step > 0 {
		if hi < lo {
			return []ir.Stmt{}, true // zero-trip: delete
		}
		trips = (hi-lo)/s.Step + 1
	} else {
		if hi > lo {
			return []ir.Stmt{}, true
		}
		trips = (lo-hi)/(-s.Step) + 1
	}
	if trips > unrollMaxTrips || len(s.Body) > unrollMaxBody {
		return nil, false
	}
	if hasControl(s.Body) {
		return nil, false
	}
	var out []ir.Stmt
	for v := lo; s.Step > 0 && v <= hi || s.Step < 0 && v >= hi; v += s.Step {
		out = append(out, &ir.Assign{Dst: s.Var, Src: ir.CI(v)})
		for _, b := range s.Body {
			out = append(out, ir.CloneStmt(b))
		}
	}
	return out, true
}

// hasControl reports whether the body contains loops, breaks, continues
// or returns (which would change meaning when unrolled).
func hasControl(stmts []ir.Stmt) bool {
	found := false
	WalkStmts(stmts, func(s ir.Stmt) {
		switch s.(type) {
		case *ir.For, *ir.While, *ir.Break, *ir.Continue, *ir.Return:
			found = true
		}
	})
	return found
}
