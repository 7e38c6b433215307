// Package isel implements custom-instruction selection: it pattern-
// matches IR expression trees against the custom instructions declared
// in the processor description and rewrites matches into Intrinsic
// nodes. This is the "custom instructions such as ... instructions for
// complex arithmetic" half of the paper's contribution.
//
// Matching runs bottom-up, so fused patterns compose: a complex multiply
// becomes @cmul first, and a surrounding addition then upgrades it to
// @cmac. Scalar and vector forms are selected independently (a vector
// pattern requires the v-prefixed instruction in the description). Every
// rewrite is semantics-preserving by construction — the Intrinsic
// reference semantics in the ir package define exactly the replaced
// expression.
package isel

import (
	"mat2c/internal/ir"
	"mat2c/internal/opt"
	"mat2c/internal/pdesc"
)

// Stats reports what instruction selection did.
type Stats struct {
	// Selected counts rewrites per intrinsic name.
	Selected map[string]int
}

// Total returns the total number of rewrites.
func (s Stats) Total() int {
	n := 0
	for _, c := range s.Selected {
		n += c
	}
	return n
}

// Apply rewrites f for target p and returns selection statistics.
func Apply(f *ir.Func, p pdesc.Target) Stats {
	st := Stats{Selected: map[string]int{}}
	sel := &selector{proc: p, stats: &st, mined: minedOf(p)}
	opt.WalkStmts(f.Body, func(s ir.Stmt) {
		opt.RewriteStmtExprs(s, sel.rewrite)
	})
	return st
}

type selector struct {
	proc  pdesc.Target
	stats *Stats
	mined []minedInstr
}

// name returns the lanes-appropriate instruction name if the processor
// has it, else "".
func (s *selector) name(base string, lanes int) string {
	n := base
	if lanes > 1 {
		n = "v" + base
	}
	if s.proc.HasInstr(n) {
		return n
	}
	return ""
}

func (s *selector) emit(name string, args []ir.Expr, k ir.Kind) ir.Expr {
	s.stats.Selected[name]++
	return &ir.Intrinsic{Name: name, Args: args, K: k}
}

// rewrite is called bottom-up on every expression node. The built-in
// catalog is matched first — selection on pre-existing targets is
// byte-identical to before mined instructions existed — and mined
// patterns (largest first) only claim what the built-ins leave behind.
func (s *selector) rewrite(e ir.Expr) ir.Expr {
	if r := s.rewriteBuiltin(e); r != e {
		return r
	}
	if len(s.mined) > 0 {
		return s.rewriteMined(e)
	}
	return e
}

func (s *selector) rewriteBuiltin(e ir.Expr) ir.Expr {
	b, ok := e.(*ir.Bin)
	if !ok {
		return e
	}
	lanes := b.K.Lanes

	switch b.Op {
	case ir.OpMul:
		if b.K.Base != ir.Complex {
			return e
		}
		// a * conj(b) → cconjmul(a, b); conj(a) * b → cconjmul(b, a).
		if cj, ok := asConj(b.Y); ok {
			if n := s.name("cconjmul", lanes); n != "" {
				return s.emit(n, []ir.Expr{b.X, cj}, b.K)
			}
		}
		if cj, ok := asConj(b.X); ok {
			if n := s.name("cconjmul", lanes); n != "" {
				return s.emit(n, []ir.Expr{b.Y, cj}, b.K)
			}
		}
		if bothComplex(b) {
			if n := s.name("cmul", lanes); n != "" {
				return s.emit(n, []ir.Expr{b.X, b.Y}, b.K)
			}
		}

	case ir.OpAdd:
		// acc + cmul(a,b) → cmac(acc,a,b)   (complex MAC fusion)
		if b.K.Base == ir.Complex {
			if in, acc, ok := addOfIntrinsic(b, "cmul", "vcmul"); ok {
				if n := s.name("cmac", lanes); n != "" {
					s.stats.Selected[in.Name]--
					return s.emit(n, []ir.Expr{acc, in.Args[0], in.Args[1]}, b.K)
				}
			}
			// Targets with a cmac but no cmul: fuse the raw product.
			if mul, acc, ok := addOfComplexMul(b); ok {
				if n := s.name("cmac", lanes); n != "" {
					return s.emit(n, []ir.Expr{acc, mul.X, mul.Y}, b.K)
				}
			}
			if n := s.name("cadd", lanes); n != "" {
				return s.emit(n, []ir.Expr{b.X, b.Y}, b.K)
			}
			return e
		}
		if b.K.Base == ir.Float {
			// acc + |a-b| → sad(acc,a,b)
			if abs, acc, ok := addOfAbsDiff(b); ok {
				if n := s.name("sad", lanes); n != "" {
					return s.emit(n, []ir.Expr{acc, abs.X.(*ir.Bin).X, abs.X.(*ir.Bin).Y}, b.K)
				}
			}
			// acc + a*b → fma(acc,a,b)
			if mul, acc, ok := addOfMul(b); ok {
				if n := s.name("fma", lanes); n != "" {
					return s.emit(n, []ir.Expr{acc, mul.X, mul.Y}, b.K)
				}
			}
		}

	case ir.OpSub:
		if b.K.Base == ir.Complex {
			if n := s.name("csub", lanes); n != "" {
				return s.emit(n, []ir.Expr{b.X, b.Y}, b.K)
			}
		}
		if b.K.Base == ir.Float {
			// acc - a*b → fms(acc,a,b). Only the right operand may be
			// the product (a*b - acc has the opposite sign).
			if m, ok := b.Y.(*ir.Bin); ok && m.Op == ir.OpMul && m.K.Base == ir.Float {
				if n := s.name("fms", lanes); n != "" {
					return s.emit(n, []ir.Expr{b.X, m.X, m.Y}, b.K)
				}
			}
		}
	}
	return e
}

func asConj(e ir.Expr) (ir.Expr, bool) {
	u, ok := e.(*ir.Un)
	if !ok || u.Op != ir.OpConj {
		return nil, false
	}
	return u.X, true
}

func bothComplex(b *ir.Bin) bool {
	return b.X.Kind().Base == ir.Complex && b.Y.Kind().Base == ir.Complex
}

// addOfIntrinsic matches x + @name(...) in either operand order.
func addOfIntrinsic(b *ir.Bin, names ...string) (*ir.Intrinsic, ir.Expr, bool) {
	match := func(e ir.Expr) *ir.Intrinsic {
		in, ok := e.(*ir.Intrinsic)
		if !ok {
			return nil
		}
		for _, n := range names {
			if in.Name == n && len(in.Args) == 2 {
				return in
			}
		}
		return nil
	}
	if in := match(b.Y); in != nil {
		return in, b.X, true
	}
	if in := match(b.X); in != nil {
		return in, b.Y, true
	}
	return nil, nil, false
}

// addOfMul matches acc + a*b (float) in either operand order.
func addOfMul(b *ir.Bin) (*ir.Bin, ir.Expr, bool) {
	match := func(e ir.Expr) *ir.Bin {
		m, ok := e.(*ir.Bin)
		if ok && m.Op == ir.OpMul && m.K.Base == ir.Float {
			return m
		}
		return nil
	}
	if m := match(b.Y); m != nil {
		return m, b.X, true
	}
	if m := match(b.X); m != nil {
		return m, b.Y, true
	}
	return nil, nil, false
}

// addOfComplexMul matches acc + a*b (complex Bin) in either operand
// order.
func addOfComplexMul(b *ir.Bin) (*ir.Bin, ir.Expr, bool) {
	match := func(e ir.Expr) *ir.Bin {
		m, ok := e.(*ir.Bin)
		if ok && m.Op == ir.OpMul && m.K.Base == ir.Complex {
			return m
		}
		return nil
	}
	if m := match(b.Y); m != nil {
		return m, b.X, true
	}
	if m := match(b.X); m != nil {
		return m, b.Y, true
	}
	return nil, nil, false
}

// addOfAbsDiff matches acc + abs(a-b) (float) in either operand order.
func addOfAbsDiff(b *ir.Bin) (*ir.Un, ir.Expr, bool) {
	match := func(e ir.Expr) *ir.Un {
		u, ok := e.(*ir.Un)
		if !ok || u.Op != ir.OpAbs || u.K.Base != ir.Float {
			return nil
		}
		if d, ok := u.X.(*ir.Bin); ok && d.Op == ir.OpSub && d.K.Base == ir.Float {
			return u
		}
		return nil
	}
	if u := match(b.Y); u != nil {
		return u, b.X, true
	}
	if u := match(b.X); u != nil {
		return u, b.Y, true
	}
	return nil, nil, false
}
