// Package opt implements the scalar optimization pipeline that runs on
// the loop IR between lowering and vectorization: constant folding with
// algebraic simplification, block-local copy propagation and common
// subexpression elimination, dead code elimination, loop-invariant code
// motion, and full unrolling of tiny constant-trip loops.
//
// These are the "standard optimizations" a MATLAB-to-C product applies
// to both the proposed flow and the baseline; they are deliberately
// target-independent. Target-specific work (SIMD, custom instructions)
// lives in the vectorize and isel packages.
package opt

import (
	"mat2c/internal/ir"
)

// RewriteExpr applies f bottom-up over the expression tree, rebuilding
// nodes whose children changed.
func RewriteExpr(e ir.Expr, f func(ir.Expr) ir.Expr) ir.Expr {
	switch x := e.(type) {
	case *ir.Bin:
		nx := RewriteExpr(x.X, f)
		ny := RewriteExpr(x.Y, f)
		if nx != x.X || ny != x.Y {
			e = &ir.Bin{Op: x.Op, X: nx, Y: ny, K: x.K}
		}
	case *ir.Un:
		nx := RewriteExpr(x.X, f)
		if nx != x.X {
			e = &ir.Un{Op: x.Op, X: nx, K: x.K}
		}
	case *ir.Load:
		ni := RewriteExpr(x.Index, f)
		if ni != x.Index {
			e = &ir.Load{Arr: x.Arr, Index: ni}
		}
	case *ir.VecLoad:
		ni := RewriteExpr(x.Index, f)
		if ni != x.Index {
			e = &ir.VecLoad{Arr: x.Arr, Index: ni, Stride: x.Stride, K: x.K}
		}
	case *ir.Broadcast:
		nx := RewriteExpr(x.X, f)
		if nx != x.X {
			e = &ir.Broadcast{X: nx, K: x.K}
		}
	case *ir.Ramp:
		nb := RewriteExpr(x.Base, f)
		if nb != x.Base {
			e = &ir.Ramp{Base: nb, Step: x.Step, K: x.K}
		}
	case *ir.Select:
		nc := RewriteExpr(x.Cond, f)
		nt := RewriteExpr(x.Then, f)
		ne := RewriteExpr(x.Else, f)
		if nc != x.Cond || nt != x.Then || ne != x.Else {
			e = &ir.Select{Cond: nc, Then: nt, Else: ne, K: x.K}
		}
	case *ir.Reduce:
		nx := RewriteExpr(x.X, f)
		if nx != x.X {
			e = &ir.Reduce{Op: x.Op, X: nx, K: x.K}
		}
	case *ir.Intrinsic:
		var args []ir.Expr
		changed := false
		for _, a := range x.Args {
			na := RewriteExpr(a, f)
			if na != a {
				changed = true
			}
			args = append(args, na)
		}
		if changed {
			e = &ir.Intrinsic{Name: x.Name, Args: args, K: x.K}
		}
	}
	return f(e)
}

// WalkExpr visits every node of the expression tree (children first).
func WalkExpr(e ir.Expr, f func(ir.Expr)) {
	switch x := e.(type) {
	case *ir.Bin:
		WalkExpr(x.X, f)
		WalkExpr(x.Y, f)
	case *ir.Un:
		WalkExpr(x.X, f)
	case *ir.Load:
		WalkExpr(x.Index, f)
	case *ir.VecLoad:
		WalkExpr(x.Index, f)
	case *ir.Broadcast:
		WalkExpr(x.X, f)
	case *ir.Ramp:
		WalkExpr(x.Base, f)
	case *ir.Select:
		WalkExpr(x.Cond, f)
		WalkExpr(x.Then, f)
		WalkExpr(x.Else, f)
	case *ir.Reduce:
		WalkExpr(x.X, f)
	case *ir.Intrinsic:
		for _, a := range x.Args {
			WalkExpr(a, f)
		}
	}
	f(e)
}

// RewriteStmtExprs rewrites every expression embedded in a statement.
func RewriteStmtExprs(s ir.Stmt, f func(ir.Expr) ir.Expr) {
	rw := func(e ir.Expr) ir.Expr { return RewriteExpr(e, f) }
	switch s := s.(type) {
	case *ir.Assign:
		s.Src = rw(s.Src)
	case *ir.Store:
		s.Index = rw(s.Index)
		s.Val = rw(s.Val)
	case *ir.Alloc:
		s.Rows = rw(s.Rows)
		s.Cols = rw(s.Cols)
	case *ir.For:
		s.Lo = rw(s.Lo)
		s.Hi = rw(s.Hi)
	case *ir.If:
		s.Cond = rw(s.Cond)
	case *ir.While:
		s.Cond = rw(s.Cond)
	}
}

// WalkStmts visits statements recursively (pre-order).
func WalkStmts(stmts []ir.Stmt, f func(ir.Stmt)) {
	for _, s := range stmts {
		f(s)
		switch s := s.(type) {
		case *ir.For:
			WalkStmts(s.Body, f)
		case *ir.While:
			WalkStmts(s.Body, f)
		case *ir.If:
			WalkStmts(s.Then, f)
			WalkStmts(s.Else, f)
		}
	}
}

// StmtExprs calls f on every top-level expression of s (not recursive
// into sub-statements).
func StmtExprs(s ir.Stmt, f func(ir.Expr)) {
	switch s := s.(type) {
	case *ir.Assign:
		f(s.Src)
	case *ir.Store:
		f(s.Index)
		f(s.Val)
	case *ir.Alloc:
		f(s.Rows)
		f(s.Cols)
	case *ir.For:
		f(s.Lo)
		f(s.Hi)
	case *ir.If:
		f(s.Cond)
	case *ir.While:
		f(s.Cond)
	}
}

// usedScalars collects scalar symbols read anywhere under stmts.
func usedScalars(stmts []ir.Stmt) map[*ir.Sym]bool {
	used := map[*ir.Sym]bool{}
	WalkStmts(stmts, func(s ir.Stmt) {
		StmtExprs(s, func(e ir.Expr) {
			WalkExpr(e, func(x ir.Expr) {
				if v, ok := x.(*ir.VarRef); ok {
					used[v.Sym] = true
				}
			})
		})
	})
	return used
}

// loadedArrays collects arrays read (Load/VecLoad/Dim) under stmts.
func loadedArrays(stmts []ir.Stmt) map[*ir.Sym]bool {
	used := map[*ir.Sym]bool{}
	WalkStmts(stmts, func(s ir.Stmt) {
		StmtExprs(s, func(e ir.Expr) {
			WalkExpr(e, func(x ir.Expr) {
				switch x := x.(type) {
				case *ir.Load:
					used[x.Arr] = true
				case *ir.VecLoad:
					used[x.Arr] = true
				case *ir.Dim:
					used[x.Arr] = true
				}
			})
		})
	})
	return used
}

// assignedScalars collects scalar symbols written under stmts (Assign
// destinations and For loop counters).
func assignedScalars(stmts []ir.Stmt) map[*ir.Sym]bool {
	w := map[*ir.Sym]bool{}
	WalkStmts(stmts, func(s ir.Stmt) {
		switch s := s.(type) {
		case *ir.Assign:
			w[s.Dst] = true
		case *ir.For:
			w[s.Var] = true
		}
	})
	return w
}

// storedArrays collects arrays written (Store/Alloc) under stmts.
func storedArrays(stmts []ir.Stmt) map[*ir.Sym]bool {
	w := map[*ir.Sym]bool{}
	WalkStmts(stmts, func(s ir.Stmt) {
		switch s := s.(type) {
		case *ir.Store:
			w[s.Arr] = true
		case *ir.Alloc:
			w[s.Arr] = true
		}
	})
	return w
}

// exprReadsScalar reports whether e reads any symbol in set.
func exprReadsScalar(e ir.Expr, set map[*ir.Sym]bool) bool {
	found := false
	WalkExpr(e, func(x ir.Expr) {
		if v, ok := x.(*ir.VarRef); ok && set[v.Sym] {
			found = true
		}
	})
	return found
}

// exprReadsArray reports whether e loads from any array in set.
func exprReadsArray(e ir.Expr, set map[*ir.Sym]bool) bool {
	found := false
	WalkExpr(e, func(x ir.Expr) {
		switch x := x.(type) {
		case *ir.Load:
			if set[x.Arr] {
				found = true
			}
		case *ir.VecLoad:
			if set[x.Arr] {
				found = true
			}
		case *ir.Dim:
			if set[x.Arr] {
				found = true
			}
		}
	})
	return found
}

// hasLoad reports whether e contains any memory read.
func hasLoad(e ir.Expr) bool {
	found := false
	WalkExpr(e, func(x ir.Expr) {
		switch x.(type) {
		case *ir.Load, *ir.VecLoad, *ir.Dim:
			found = true
		}
	})
	return found
}

// mayFault reports whether evaluating e can raise a runtime error
// (memory access, division, remainder); such expressions must not be
// hoisted past a guard.
func mayFault(e ir.Expr) bool {
	found := false
	WalkExpr(e, func(x ir.Expr) {
		switch x := x.(type) {
		case *ir.Load, *ir.VecLoad, *ir.Dim:
			found = true
		case *ir.Bin:
			if x.Op == ir.OpDiv || x.Op == ir.OpRem {
				found = true
			}
		}
	})
	return found
}

// key returns a structural hash key for an expression (symbol identity
// included via IDs): its ExprStr rendering, built in a stack buffer so
// only the final string is allocated.
func key(e ir.Expr) string {
	var buf [128]byte
	return string(ir.AppendExprStr(buf[:0], e))
}
