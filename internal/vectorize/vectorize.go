// Package vectorize implements the loop auto-vectorizer: it widens
// innermost counted loops to the target's SIMD width, the "data
// parallelism" half of the paper's contribution.
//
// The legality model is the classic one for short-vector DSPs:
//
//   - only innermost, unit-step, straight-line counted loops are
//     candidates;
//   - every memory access must be affine in the counter with stride 0
//     (invariant, broadcast) or 1 (contiguous, vector load/store);
//   - arrays both read and written in the loop must be accessed at the
//     same affine address by every access (no loop-carried distance);
//   - scalar state must be either loop-local (forward-substituted) or a
//     recognized reduction (sum, min, max), which is rewritten to a
//     vector accumulator with a final horizontal reduce;
//   - the lane count comes from the processor description: SIMDWidth
//     float lanes, ComplexLanes complex lanes (a loop touching complex
//     data is widened to the complex lane count).
//
// A scalar epilogue loop handles trip counts that are not a multiple of
// the width. Loops that fail any test are left untouched — the scalar
// code remains correct, which is exactly how the paper's compiler
// degrades.
package vectorize

import (
	"mat2c/internal/ir"
	"mat2c/internal/opt"
	"mat2c/internal/pdesc"
)

// Apply vectorizes all eligible innermost loops of f for target p. It
// returns the number of loops vectorized.
func Apply(f *ir.Func, p pdesc.Target) int {
	if p.Lanes(false) < 2 {
		return 0
	}
	v := &vectorizer{fn: f, proc: p}
	v.globalReads = scalarReadCounts(f)
	v.outsideSafe = computeOutsideSafety(f)
	f.Body = v.block(f.Body)
	return v.count
}

type vectorizer struct {
	fn   *ir.Func
	proc pdesc.Target

	// globalReads counts scalar reads across the whole function, used to
	// prove a loop temp is not live outside its loop.
	globalReads map[*ir.Sym]int
	// outsideSafe maps (loop, sym) to whether every read of sym outside
	// that loop is preceded by a redefinition (so dropping the loop's
	// assignments to sym cannot change an observable value).
	outsideSafe map[*ir.For]map[*ir.Sym]bool
	count       int
}

// computeOutsideSafety determines, for every For loop and every scalar
// assigned in it, whether reads of that scalar elsewhere are harmless:
// a read is harmless when it sits inside some (other) For body that
// unconditionally assigns the scalar before reading it (the lowered
// shape of MATLAB loop variables). Reads outside any such loop make the
// scalar live-out and unsafe to drop.
func computeOutsideSafety(f *ir.Func) map[*ir.For]map[*ir.Sym]bool {
	// defBeforeUse[loop][sym]: the loop body assigns sym at top level
	// before any statement that reads it.
	defBeforeUse := map[*ir.For]map[*ir.Sym]bool{}
	var loops []*ir.For
	opt.WalkStmts(f.Body, func(s ir.Stmt) {
		if l, ok := s.(*ir.For); ok {
			loops = append(loops, l)
			m := map[*ir.Sym]bool{}
			read := map[*ir.Sym]bool{}
			for _, bs := range l.Body {
				// Reads of this statement (recursively).
				opt.WalkStmts([]ir.Stmt{bs}, func(inner ir.Stmt) {
					opt.StmtExprs(inner, func(e ir.Expr) {
						opt.WalkExpr(e, func(x ir.Expr) {
							if vr, ok := x.(*ir.VarRef); ok {
								read[vr.Sym] = true
							}
						})
					})
				})
				if a, ok := bs.(*ir.Assign); ok && !read[a.Dst] {
					m[a.Dst] = true
				}
			}
			defBeforeUse[l] = m
		}
	})

	// For each read of a sym, find the innermost containing loop.
	type readSite struct {
		sym  *ir.Sym
		loop *ir.For // nil when outside every loop
	}
	var sites []readSite
	var walk func(stmts []ir.Stmt, cur *ir.For)
	walk = func(stmts []ir.Stmt, cur *ir.For) {
		for _, s := range stmts {
			opt.StmtExprs(s, func(e ir.Expr) {
				opt.WalkExpr(e, func(x ir.Expr) {
					if vr, ok := x.(*ir.VarRef); ok {
						sites = append(sites, readSite{vr.Sym, cur})
					}
				})
			})
			switch s := s.(type) {
			case *ir.For:
				walk(s.Body, s)
			case *ir.While:
				walk(s.Body, cur)
			case *ir.If:
				walk(s.Then, cur)
				walk(s.Else, cur)
			}
		}
	}
	walk(f.Body, nil)

	out := map[*ir.For]map[*ir.Sym]bool{}
	for _, l := range loops {
		m := map[*ir.Sym]bool{}
		for sym := range assignCounts(l.Body) {
			safe := true
			for _, site := range sites {
				if site.sym != sym || site.loop == l {
					continue
				}
				// Harmless only when the containing loop redefines sym
				// before reading it.
				if site.loop == nil || !defBeforeUse[site.loop][sym] {
					safe = false
					break
				}
			}
			m[sym] = safe
		}
		out[l] = m
	}
	return out
}

// scalarReadCounts counts VarRef occurrences per symbol over the whole
// function.
func scalarReadCounts(f *ir.Func) map[*ir.Sym]int {
	counts := map[*ir.Sym]int{}
	opt.WalkStmts(f.Body, func(s ir.Stmt) {
		opt.StmtExprs(s, func(e ir.Expr) {
			opt.WalkExpr(e, func(x ir.Expr) {
				if v, ok := x.(*ir.VarRef); ok {
					counts[v.Sym]++
				}
			})
		})
	})
	return counts
}

func (v *vectorizer) block(stmts []ir.Stmt) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.For:
			s.Body = v.block(s.Body)
			if repl, ok := v.tryVectorize(s); ok {
				out = append(out, repl...)
				v.count++
				continue
			}
		case *ir.While:
			s.Body = v.block(s.Body)
		case *ir.If:
			s.Then = v.block(s.Then)
			s.Else = v.block(s.Else)
		}
		out = append(out, s)
	}
	return out
}

// reduction describes a recognized reduction statement.
type reduction struct {
	acc  *ir.Sym
	op   ir.Op   // OpAdd, OpMin, OpMax
	rest ir.Expr // fully substituted update term
	vacc *ir.Sym // created vector accumulator
}

// vstmt is a classified body statement. A non-nil cond marks an
// if-converted (predicated) statement: the store or reduction applies
// only in lanes where cond is nonzero.
type vstmt struct {
	store *ir.Store // substituted store, or
	red   *reduction
	cond  ir.Expr // substituted predicate, nil when unconditional
}

func (v *vectorizer) tryVectorize(loop *ir.For) ([]ir.Stmt, bool) {
	if loop.Step != 1 {
		return nil, false
	}
	// Straight-line body, plus single-level conditionals that can be
	// if-converted (no else arm, body of stores/reductions only).
	for _, s := range loop.Body {
		switch s := s.(type) {
		case *ir.Assign, *ir.Store:
		case *ir.If:
			if len(s.Else) != 0 {
				return nil, false
			}
			for _, ts := range s.Then {
				switch ts.(type) {
				case *ir.Assign, *ir.Store:
				default:
					return nil, false
				}
			}
		default:
			return nil, false
		}
	}

	k := loop.Var
	loadedInBody := map[*ir.Sym]bool{}
	storedInBody := map[*ir.Sym]bool{}

	// Pass 1: classify statements, forward-substituting loop temps.
	sub := map[*ir.Sym]ir.Expr{} // temp -> substituted defining expr
	bodyReads := bodyScalarReads(loop.Body)
	var classified []vstmt
	var reds []*reduction

	substitute := func(e ir.Expr) ir.Expr {
		return opt.RewriteExpr(e, func(x ir.Expr) ir.Expr {
			if vr, ok := x.(*ir.VarRef); ok {
				if def, ok := sub[vr.Sym]; ok {
					return def
				}
			}
			return x
		})
	}

	assignedOnce := assignCounts(loop.Body)

	// readBefore tracks scalars read by statements processed so far. A
	// scalar assigned after it has been read carries a value across
	// iterations (e.g. an IIR delay line w2 = w1) — not a loop-local
	// temp; such loops are rejected.
	readBefore := map[*ir.Sym]bool{}
	noteReads := func(s ir.Stmt) {
		opt.WalkStmts([]ir.Stmt{s}, func(inner ir.Stmt) {
			opt.StmtExprs(inner, func(e ir.Expr) {
				opt.WalkExpr(e, func(x ir.Expr) {
					if v, ok := x.(*ir.VarRef); ok {
						readBefore[v.Sym] = true
					}
				})
			})
		})
	}

	// classify handles one Store/Assign, under an optional predicate.
	classify := func(s ir.Stmt, cond ir.Expr) bool {
		switch s := s.(type) {
		case *ir.Store:
			ns := &ir.Store{Arr: s.Arr, Index: substitute(s.Index), Val: substitute(s.Val)}
			storedInBody[s.Arr] = true
			collectLoads(ns.Index, loadedInBody)
			collectLoads(ns.Val, loadedInBody)
			classified = append(classified, vstmt{store: ns, cond: cond})
			return true
		case *ir.Assign:
			src := substitute(s.Src)
			if red, ok := matchReduction(s.Dst, src); ok {
				// The accumulator must not be read by any other body
				// statement (prefix-sum style dependences are carried).
				if bodyReads[s.Dst] > 1 || assignedOnce[s.Dst] > 1 {
					return false
				}
				if red.op != ir.OpAdd && s.Dst.Elem != ir.Float {
					return false // min/max only on floats
				}
				if s.Dst.Elem == ir.Int {
					return false
				}
				collectLoads(red.rest, loadedInBody)
				classified = append(classified, vstmt{red: red, cond: cond})
				reds = append(reds, red)
				return true
			}
			if cond != nil {
				// Conditionally-defined temps are not if-converted.
				return false
			}
			// Loop temp: single assignment, defined before every use in
			// the iteration, not self-referential, and not observably
			// live outside the loop.
			if assignedOnce[s.Dst] != 1 || readsVar(src, s.Dst) || readBefore[s.Dst] {
				return false
			}
			if !v.outsideSafe[loop][s.Dst] {
				return false // a read elsewhere could see the dropped value
			}
			sub[s.Dst] = src
			return true
		}
		return false
	}

	for _, s := range loop.Body {
		switch s := s.(type) {
		case *ir.Store, *ir.Assign:
			if !classify(s, nil) {
				return nil, false
			}
		case *ir.If:
			// If-conversion: predicate every statement of the arm.
			cond := substitute(s.Cond)
			collectLoads(cond, loadedInBody)
			for _, ts := range s.Then {
				if !classify(ts, cond) {
					return nil, false
				}
			}
		}
		noteReads(s)
	}
	if len(classified) == 0 {
		return nil, false
	}

	// Pass 2: affine legality for every memory access.
	lanesComplex := false
	for _, c := range classified {
		var exprs []ir.Expr
		if c.cond != nil {
			exprs = append(exprs, c.cond)
		}
		if c.store != nil {
			st := affineStride(c.store.Index, k)
			if st == nil || *st != 1 {
				return nil, false
			}
			if c.store.Arr.Elem == ir.Complex {
				lanesComplex = true
			}
			exprs = append(exprs, c.store.Val)
		} else {
			exprs = append(exprs, c.red.rest)
			if c.red.acc.Elem == ir.Complex {
				lanesComplex = true
			}
		}
		for _, e := range exprs {
			ok := true
			opt.WalkExpr(e, func(x ir.Expr) {
				switch x := x.(type) {
				case *ir.Load:
					st := affineStride(x.Index, k)
					if st == nil {
						ok = false
						return
					}
					if *st != 0 && *st != 1 && !v.hasStridedLoad(x.Arr.Elem) {
						ok = false
					}
					if x.Arr.Elem == ir.Complex {
						lanesComplex = true
					}
				case *ir.VecLoad, *ir.Broadcast, *ir.Reduce, *ir.Ramp:
					ok = false // already vectorized? bail out
				}
			})
			if !ok {
				return nil, false
			}
		}
	}

	// Pass 3: dependence check for arrays both loaded and stored.
	if !v.checkReadWriteArrays(classified, k, loadedInBody, storedInBody) {
		return nil, false
	}

	lanes := v.proc.Lanes(lanesComplex)
	if lanes < 2 {
		return nil, false
	}

	return v.emit(loop, classified, reds, lanes), true
}

// hasStridedLoad reports whether the target provides a strided vector
// load for the element kind.
func (v *vectorizer) hasStridedLoad(elem ir.BaseKind) bool {
	if elem == ir.Complex {
		return v.proc.HasInstr("vclds")
	}
	return v.proc.HasInstr("vlds")
}

// bodyScalarReads counts scalar reads within the loop body.
func bodyScalarReads(stmts []ir.Stmt) map[*ir.Sym]int {
	counts := map[*ir.Sym]int{}
	opt.WalkStmts(stmts, func(s ir.Stmt) {
		opt.StmtExprs(s, func(e ir.Expr) {
			opt.WalkExpr(e, func(x ir.Expr) {
				if v, ok := x.(*ir.VarRef); ok {
					counts[v.Sym]++
				}
			})
		})
	})
	return counts
}

func assignCounts(stmts []ir.Stmt) map[*ir.Sym]int {
	counts := map[*ir.Sym]int{}
	opt.WalkStmts(stmts, func(s ir.Stmt) {
		if a, ok := s.(*ir.Assign); ok {
			counts[a.Dst]++
		}
	})
	return counts
}

func collectLoads(e ir.Expr, set map[*ir.Sym]bool) {
	opt.WalkExpr(e, func(x ir.Expr) {
		if ld, ok := x.(*ir.Load); ok {
			set[ld.Arr] = true
		}
	})
}

func readsVar(e ir.Expr, s *ir.Sym) bool {
	found := false
	opt.WalkExpr(e, func(x ir.Expr) {
		if v, ok := x.(*ir.VarRef); ok && v.Sym == s {
			found = true
		}
	})
	return found
}

// matchReduction recognizes acc = acc ⊕ rest (or rest ⊕ acc for
// commutative ⊕) with ⊕ ∈ {+, min, max} and rest free of acc.
func matchReduction(dst *ir.Sym, src ir.Expr) (*reduction, bool) {
	b, ok := src.(*ir.Bin)
	if !ok {
		return nil, false
	}
	switch b.Op {
	case ir.OpAdd, ir.OpMin, ir.OpMax:
	default:
		return nil, false
	}
	if vr, ok := b.X.(*ir.VarRef); ok && vr.Sym == dst && !readsVar(b.Y, dst) {
		return &reduction{acc: dst, op: b.Op, rest: b.Y}, true
	}
	if vr, ok := b.Y.(*ir.VarRef); ok && vr.Sym == dst && !readsVar(b.X, dst) {
		return &reduction{acc: dst, op: b.Op, rest: b.X}, true
	}
	return nil, false
}

// affineStride returns the stride of e as an affine function of k, or
// nil when e is not affine in k with a compile-time-constant stride.
func affineStride(e ir.Expr, k *ir.Sym) *int64 {
	s, ok := affine(e, k)
	if !ok {
		return nil
	}
	return &s
}

func affine(e ir.Expr, k *ir.Sym) (int64, bool) {
	switch x := e.(type) {
	case *ir.VarRef:
		if x.Sym == k {
			return 1, true
		}
		return 0, true
	case *ir.ConstInt:
		return 0, true
	case *ir.Bin:
		if x.K.Base != ir.Int {
			// Non-integer arithmetic cannot feed an address we accept.
			if readsVar(e, k) {
				return 0, false
			}
			return 0, true
		}
		a, aok := affine(x.X, k)
		b, bok := affine(x.Y, k)
		switch x.Op {
		case ir.OpAdd:
			if aok && bok {
				return a + b, true
			}
		case ir.OpSub:
			if aok && bok {
				return a - b, true
			}
		case ir.OpMul:
			if c, ok := x.X.(*ir.ConstInt); ok && bok {
				return c.V * b, true
			}
			if c, ok := x.Y.(*ir.ConstInt); ok && aok {
				return a * c.V, true
			}
			// product of two k-free values is k-free
			if aok && bok && a == 0 && b == 0 {
				return 0, true
			}
		default:
			if !readsVar(e, k) {
				return 0, true
			}
		}
		return 0, false
	default:
		if !readsVar2(e, k) {
			return 0, true
		}
	}
	return 0, false
}

// readsVar2 is readsVar over arbitrary expressions (incl. loads' indices).
func readsVar2(e ir.Expr, s *ir.Sym) bool { return readsVar(e, s) }

// checkReadWriteArrays verifies that arrays both loaded and stored are
// accessed at one common affine address.
func (v *vectorizer) checkReadWriteArrays(classified []vstmt, k *ir.Sym, loaded, stored map[*ir.Sym]bool) bool {
	type access struct {
		key string
	}
	// For each array in both sets, collect address keys.
	shared := map[*ir.Sym]bool{}
	for a := range stored {
		if loaded[a] {
			shared[a] = true
		}
	}
	if len(shared) == 0 {
		return true
	}
	addrs := map[*ir.Sym]map[string]bool{}
	record := func(arr *ir.Sym, idx ir.Expr) {
		if !shared[arr] {
			return
		}
		if addrs[arr] == nil {
			addrs[arr] = map[string]bool{}
		}
		addrs[arr][ir.ExprStr(idx)] = true
	}
	for _, c := range classified {
		recordLoads := func(e ir.Expr) {
			opt.WalkExpr(e, func(x ir.Expr) {
				if ld, ok := x.(*ir.Load); ok {
					record(ld.Arr, ld.Index)
				}
			})
		}
		if c.cond != nil {
			recordLoads(c.cond)
		}
		if c.store != nil {
			record(c.store.Arr, c.store.Index)
			recordLoads(c.store.Val)
			recordLoads(c.store.Index)
		} else {
			recordLoads(c.red.rest)
		}
	}
	for _, keys := range addrs {
		if len(keys) > 1 {
			return false
		}
	}
	return true
}
