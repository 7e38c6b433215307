package isel

import (
	"sort"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// Mined-instruction selection. Instructions discovered by the isx miner
// carry their behaviour as a semantics pattern in the processor
// description; this file matches those patterns against IR expression
// trees, exactly as the built-in catalog in isel.go matches its
// hard-coded shapes. Matching is maximal-munch: candidates are tried
// largest (most operation nodes) first, commutative operators in both
// operand orders, and a repeated parameter (e.g. mul(p0,p0)) requires
// structurally identical subexpressions.

// minedInstr is one pattern-defined instruction of the target. base is
// the scalar name; the vector form, when the target declares it, is the
// v-prefixed name (same convention as the built-in family).
type minedInstr struct {
	base string
	sem  string
	pat  *ir.Pattern
}

// minedOf collects the pattern-defined instructions of p, largest
// pattern first so bigger fusions win over their own sub-patterns.
func minedOf(p pdesc.Target) []minedInstr {
	var out []minedInstr
	for _, in := range p.PatternInstrs() {
		pat, err := ir.CachedPattern(in.Semantics)
		if err != nil {
			continue // Validate rejects this; stay permissive here
		}
		name := in.Name
		if len(name) > 1 && name[0] == 'v' && p.HasInstr(name[1:]) {
			// The vector form of a scalar mined instruction: reached via
			// the v-prefix lookup on the scalar entry.
			continue
		}
		out = append(out, minedInstr{base: name, sem: in.Semantics, pat: pat})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pat.OpNodes() != out[j].pat.OpNodes() {
			return out[i].pat.OpNodes() > out[j].pat.OpNodes()
		}
		return out[i].base < out[j].base
	})
	return out
}

// rewriteMined tries every mined pattern against e (already known not
// to match any built-in shape).
func (s *selector) rewriteMined(e ir.Expr) ir.Expr {
	var k ir.Kind
	switch x := e.(type) {
	case *ir.Bin:
		k = x.K
	case *ir.Un:
		k = x.K
	default:
		return e
	}
	for _, m := range s.mined {
		if m.pat.Base != k.Base {
			continue
		}
		n := s.name(m.base, k.Lanes)
		if n == "" {
			continue
		}
		mc := &matchCtx{base: m.pat.Base, lanes: k.Lanes, binding: make([]ir.Expr, m.pat.Arity())}
		if !mc.match(m.pat.Root, e) {
			continue
		}
		// A larger pattern may have subsumed mined intrinsics already
		// selected at inner nodes (bottom-up order reaches them first);
		// their selections are undone by the wider fusion.
		for _, in := range mc.consumed {
			s.stats.Selected[in.Name]--
		}
		s.stats.Selected[n]++
		return &ir.Intrinsic{Name: n, Args: mc.binding, K: k, Sem: m.sem}
	}
	return e
}

// matchCtx carries one in-progress pattern match: parameters bound so
// far (nil = unbound) and the already-selected mined intrinsics the
// match has unfolded into. On failed branches both are restored by the
// backtracking points.
type matchCtx struct {
	base     ir.BaseKind
	lanes    int
	binding  []ir.Expr
	consumed []*ir.Intrinsic
}

// match matches pattern node n against expression e. Interior nodes
// must be Bin/Un at the pattern's base with the root's lane count — or
// a previously selected mined intrinsic, which is matched through its
// own semantics pattern so larger fusions subsume smaller ones
// regardless of the bottom-up rewrite order. Leaves bind anything, but
// a repeated parameter only re-binds a structurally identical
// expression.
func (mc *matchCtx) match(n *ir.PatNode, e ir.Expr) bool {
	if n.Param >= 0 {
		if mc.binding[n.Param] == nil {
			mc.binding[n.Param] = e
			return true
		}
		return exprEq(mc.binding[n.Param], e)
	}
	if in, ok := e.(*ir.Intrinsic); ok && in.Sem != "" {
		pat, err := ir.CachedPattern(in.Sem)
		if err != nil || pat.Base != mc.base || in.K.Lanes != mc.lanes {
			return false
		}
		mc.consumed = append(mc.consumed, in)
		if mc.matchUnfolded(n, pat.Root, in.Args) {
			return true
		}
		mc.consumed = mc.consumed[:len(mc.consumed)-1]
		return false
	}
	if n.Y != nil {
		b, ok := e.(*ir.Bin)
		if !ok || b.Op != n.Op || b.K.Base != mc.base || b.K.Lanes != mc.lanes {
			return false
		}
		save, nc := mc.save()
		if mc.match(n.X, b.X) && mc.match(n.Y, b.Y) {
			return true
		}
		mc.restore(save, nc)
		if n.Op.Commutative() {
			if mc.match(n.X, b.Y) && mc.match(n.Y, b.X) {
				return true
			}
			mc.restore(save, nc)
		}
		return false
	}
	u, ok := e.(*ir.Un)
	if !ok || u.Op != n.Op || u.K.Base != mc.base || u.K.Lanes != mc.lanes {
		return false
	}
	// The operand must live in the same base: float abs(p0) must not
	// claim a complex magnitude (abs : complex → float).
	if u.X.Kind().Base != mc.base {
		return false
	}
	return mc.match(n.X, u.X)
}

// matchUnfolded matches pattern node n against the body of a mined
// intrinsic: q walks the intrinsic's own semantics pattern and args are
// its actual arguments. Outer parameters may only bind at the inner
// pattern's parameter positions — binding an interior node would split
// the fused intrinsic and silently de-optimize it — so the outer
// pattern must cover the unfolded body entirely.
func (mc *matchCtx) matchUnfolded(n, q *ir.PatNode, args []ir.Expr) bool {
	if q.Param >= 0 {
		return mc.match(n, args[q.Param])
	}
	if n.Param >= 0 || n.Op != q.Op || (n.Y != nil) != (q.Y != nil) {
		return false
	}
	if q.Y != nil {
		save, nc := mc.save()
		if mc.matchUnfolded(n.X, q.X, args) && mc.matchUnfolded(n.Y, q.Y, args) {
			return true
		}
		mc.restore(save, nc)
		if n.Op.Commutative() {
			if mc.matchUnfolded(n.X, q.Y, args) && mc.matchUnfolded(n.Y, q.X, args) {
				return true
			}
			mc.restore(save, nc)
		}
		return false
	}
	return mc.matchUnfolded(n.X, q.X, args)
}

func (mc *matchCtx) save() ([ir.MaxPatternArity]ir.Expr, int) {
	var save [ir.MaxPatternArity]ir.Expr
	copy(save[:], mc.binding)
	return save, len(mc.consumed)
}

func (mc *matchCtx) restore(save [ir.MaxPatternArity]ir.Expr, nc int) {
	copy(mc.binding, save[:len(mc.binding)])
	mc.consumed = mc.consumed[:nc]
}

// exprEq is conservative structural equality over pure IR expressions,
// used for repeated pattern parameters. Unhandled node types compare
// unequal (a missed match, never a wrong one).
func exprEq(a, b ir.Expr) bool {
	switch x := a.(type) {
	case *ir.VarRef:
		y, ok := b.(*ir.VarRef)
		return ok && x.Sym == y.Sym
	case *ir.ConstInt:
		y, ok := b.(*ir.ConstInt)
		return ok && x.V == y.V
	case *ir.ConstFloat:
		y, ok := b.(*ir.ConstFloat)
		return ok && x.V == y.V
	case *ir.ConstComplex:
		y, ok := b.(*ir.ConstComplex)
		return ok && x.V == y.V
	case *ir.Load:
		y, ok := b.(*ir.Load)
		return ok && x.Arr == y.Arr && exprEq(x.Index, y.Index)
	case *ir.VecLoad:
		y, ok := b.(*ir.VecLoad)
		return ok && x.Arr == y.Arr && x.K == y.K && x.Stride == y.Stride && exprEq(x.Index, y.Index)
	case *ir.Un:
		y, ok := b.(*ir.Un)
		return ok && x.Op == y.Op && x.K == y.K && exprEq(x.X, y.X)
	case *ir.Bin:
		y, ok := b.(*ir.Bin)
		return ok && x.Op == y.Op && x.K == y.K && exprEq(x.X, y.X) && exprEq(x.Y, y.Y)
	case *ir.Broadcast:
		y, ok := b.(*ir.Broadcast)
		return ok && x.K == y.K && exprEq(x.X, y.X)
	}
	return false
}
