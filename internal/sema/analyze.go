package sema

import (
	"fmt"
	"math"

	"mat2c/internal/mlang"
)

// Diagnostic is a semantic error tied to a source position.
type Diagnostic struct {
	Pos mlang.Pos
	Msg string
}

func (d *Diagnostic) Error() string {
	if d.Pos.Valid() {
		return fmt.Sprintf("%s: %s", d.Pos, d.Msg)
	}
	return d.Msg
}

// DiagList aggregates diagnostics into one error.
type DiagList []*Diagnostic

func (l DiagList) Error() string {
	switch len(l) {
	case 0:
		return "no diagnostics"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more)", l[0].Error(), len(l)-1)
}

// CallKind resolves MATLAB's call/index ambiguity for a CallExpr.
type CallKind int

// Call resolutions.
const (
	CallIndex   CallKind = iota // variable indexing x(i)
	CallBuiltin                 // catalog builtin
	CallUser                    // user function defined in the same file
)

// Info is the analysis result consumed by the lowering phase.
type Info struct {
	File *mlang.File
	// Types records the inferred type of every analyzed expression.
	Types map[mlang.Expr]Type
	// Consts records statically known scalar values.
	Consts map[mlang.Expr]float64
	// Calls resolves each CallExpr.
	Calls map[*mlang.CallExpr]CallKind
	// Funcs holds one analyzed instance per reachable user function.
	Funcs map[string]*FuncInst
	// Entry is the name of the entry function.
	Entry string
	// Warnings are non-fatal diagnostics (the program compiles).
	Warnings []*Diagnostic
}

// TypeOf returns the recorded type of e (zero Type if absent).
func (in *Info) TypeOf(e mlang.Expr) Type { return in.Types[e] }

// ConstOf returns the recorded constant value of e.
func (in *Info) ConstOf(e mlang.Expr) (float64, bool) {
	v, ok := in.Consts[e]
	return v, ok
}

// FuncInst is an analyzed (monomorphic) instance of a user function.
type FuncInst struct {
	Decl    *mlang.FuncDecl
	Params  []Type
	Results []Type
	// Vars is the fixpoint type of every local variable.
	Vars map[string]Type
}

const maxFixpointIters = 24

type binding struct {
	t Type
	c *float64 // known constant scalar value, nil if unknown
}

type env map[string]binding

func (e env) clone() env {
	n := make(env, len(e))
	for k, v := range e {
		n[k] = v
	}
	return n
}

func (e env) equal(o env) bool {
	if len(e) != len(o) {
		return false
	}
	for k, v := range e {
		w, ok := o[k]
		if !ok || !v.t.Equal(w.t) {
			return false
		}
		if (v.c == nil) != (w.c == nil) || v.c != nil && *v.c != *w.c {
			return false
		}
	}
	return true
}

// joinWith widens e to cover o as well (merge point of two paths).
// Variables bound on only one path keep their one binding (MATLAB would
// error at run time on the unbound path; we accept the optimistic view).
func (e env) joinWith(o env) {
	for k, w := range o {
		v, ok := e[k]
		if !ok {
			e[k] = w
			continue
		}
		nb := binding{t: v.t.Join(w.t)}
		if v.c != nil && w.c != nil && *v.c == *w.c {
			nb.c = v.c
		}
		e[k] = nb
	}
}

type analyzer struct {
	file  *mlang.File
	decls map[string]*mlang.FuncDecl
	info  *Info
	diags DiagList
	warns []*Diagnostic

	inProgress map[string]bool
	loopDepth  int

	// endStack tracks, while inferring index arguments, the extent that
	// the 'end' keyword denotes (DimUnknown when dynamic).
	endStack []int
}

// Analyze type-checks the file starting from entry, whose parameters are
// assumed to have the given types. It returns the analysis Info and a
// DiagList error if any diagnostics were produced.
func Analyze(file *mlang.File, entry string, params []Type) (*Info, error) {
	a := &analyzer{
		file:  file,
		decls: map[string]*mlang.FuncDecl{},
		info: &Info{
			File:   file,
			Types:  map[mlang.Expr]Type{},
			Consts: map[mlang.Expr]float64{},
			Calls:  map[*mlang.CallExpr]CallKind{},
			Funcs:  map[string]*FuncInst{},
			Entry:  entry,
		},
		inProgress: map[string]bool{},
	}
	for _, fn := range file.Funcs {
		if a.decls[fn.Name] != nil {
			a.errorf(fn.Pos, "function %s redefined", fn.Name)
		}
		a.decls[fn.Name] = fn
	}
	decl := a.decls[entry]
	if decl == nil {
		a.errorf(mlang.Pos{}, "entry function %q not found", entry)
		return a.info, a.diags
	}
	if len(params) != len(decl.Params) {
		a.errorf(decl.Pos, "entry %s takes %d parameters, %d types supplied",
			entry, len(decl.Params), len(params))
		return a.info, a.diags
	}
	a.instantiate(entry, params, decl.Pos)
	a.info.Warnings = a.warns
	if len(a.diags) > 0 {
		return a.info, a.diags
	}
	return a.info, nil
}

func (a *analyzer) errorf(pos mlang.Pos, format string, args ...interface{}) {
	if len(a.diags) < 50 {
		a.diags = append(a.diags, &Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (a *analyzer) warnf(pos mlang.Pos, format string, args ...interface{}) {
	if len(a.warns) < 50 {
		a.warns = append(a.warns, &Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// instantiate analyzes function name with the given parameter types,
// memoizing per name. A later call with wider argument types triggers
// re-analysis at the join.
func (a *analyzer) instantiate(name string, args []Type, pos mlang.Pos) *FuncInst {
	decl := a.decls[name]
	if decl == nil {
		a.errorf(pos, "undefined function %q", name)
		return nil
	}
	if len(args) != len(decl.Params) {
		a.errorf(pos, "function %s takes %d arguments, got %d", name, len(decl.Params), len(args))
		return nil
	}
	if a.inProgress[name] {
		a.errorf(pos, "recursive call to %s is not supported", name)
		return nil
	}
	if inst := a.info.Funcs[name]; inst != nil {
		widened := make([]Type, len(args))
		same := true
		for i, t := range args {
			widened[i] = inst.Params[i].Join(t)
			if !widened[i].Equal(inst.Params[i]) {
				same = false
			}
		}
		if same {
			return inst
		}
		args = widened
	}
	a.inProgress[name] = true
	defer delete(a.inProgress, name)

	e := env{}
	for i, p := range decl.Params {
		e[p] = binding{t: args[i]}
	}
	a.execStmts(decl.Body, e)

	inst := &FuncInst{Decl: decl, Params: args, Vars: map[string]Type{}}
	for k, v := range e {
		inst.Vars[k] = v.t
	}
	for _, out := range decl.Outs {
		b, ok := e[out]
		if !ok {
			a.errorf(decl.Pos, "output %q of function %s is never assigned", out, name)
			b = binding{t: RealScalar}
		}
		inst.Results = append(inst.Results, b.t)
	}
	a.info.Funcs[name] = inst
	return inst
}

func (a *analyzer) execStmts(stmts []mlang.Stmt, e env) {
	for _, s := range stmts {
		a.execStmt(s, e)
	}
}

func (a *analyzer) execStmt(s mlang.Stmt, e env) {
	switch s := s.(type) {
	case *mlang.AssignStmt:
		a.execAssign(s, e)
	case *mlang.ExprStmt:
		a.expr(s.X, e)
	case *mlang.IfStmt:
		a.execIf(s, e)
	case *mlang.SwitchStmt:
		a.execSwitch(s, e)
	case *mlang.ForStmt:
		a.execFor(s, e)
	case *mlang.WhileStmt:
		a.execWhile(s, e)
	case *mlang.BreakStmt:
		if a.loopDepth == 0 {
			a.errorf(s.Pos, "break outside of loop")
		}
	case *mlang.ContinueStmt:
		if a.loopDepth == 0 {
			a.errorf(s.Pos, "continue outside of loop")
		}
	case *mlang.ReturnStmt:
		// Early return: fall through (conservative join already covers it).
	default:
		a.errorf(s.NodePos(), "unsupported statement %T", s)
	}
}

func (a *analyzer) execAssign(s *mlang.AssignStmt, e env) {
	if len(s.Lhs) > 1 {
		a.execMultiAssign(s, e)
		return
	}
	rt, rc := a.expr(s.Rhs, e)
	switch lhs := s.Lhs[0].(type) {
	case *mlang.IdentExpr:
		if IsBuiltin(lhs.Name) {
			// Shadowing a builtin is legal MATLAB but a foot-gun here.
			a.errorf(lhs.Pos, "assignment to builtin name %q is not supported", lhs.Name)
			return
		}
		e[lhs.Name] = binding{t: rt, c: rc}
		a.info.Types[lhs] = rt
	case *mlang.CallExpr:
		a.execIndexedAssign(lhs, rt, e)
	default:
		a.errorf(s.Pos, "invalid assignment target")
	}
}

// execIndexedAssign handles "x(i) = v", "x(i,j) = v", "x(:) = v",
// "x(a:b) = v". The target must already be bound (preallocated).
func (a *analyzer) execIndexedAssign(lhs *mlang.CallExpr, rt Type, e env) {
	id, ok := lhs.Fun.(*mlang.IdentExpr)
	if !ok {
		a.errorf(lhs.Pos, "invalid indexed assignment target")
		return
	}
	b, bound := e[id.Name]
	if !bound {
		a.errorf(lhs.Pos, "indexed assignment to undefined variable %q: preallocate with zeros(...) first", id.Name)
		e[id.Name] = binding{t: Type{Class: rt.Class, Shape: Shape{DimUnknown, DimUnknown}}}
		return
	}
	a.info.Calls[lhs] = CallIndex
	a.info.Types[id] = b.t
	// Type the index arguments (with 'end' in scope).
	idxTypes := a.indexArgs(lhs, b.t.Shape, e)
	selSh, err := a.indexedShape(b.t.Shape, lhs, idxTypes)
	if err != nil {
		a.errorf(lhs.Pos, "%v", err)
	} else if !selSh.IsScalar() || !rt.IsScalar() {
		// Slice assignment: value must conform (or be scalar fill).
		if !rt.IsScalar() {
			if _, err := broadcastShape(selSh, rt.Shape); err != nil {
				a.errorf(lhs.Pos, "cannot assign %s value to %s selection of %q", rt.Shape, selSh, id.Name)
			}
		}
	}
	// Element class may widen (real array receiving complex values).
	nt := Type{Class: b.t.Class.Join(rt.Class), Shape: b.t.Shape}
	e[id.Name] = binding{t: nt}
	a.info.Types[lhs] = Type{Class: nt.Class, Shape: selSh}
}

func (a *analyzer) execMultiAssign(s *mlang.AssignStmt, e env) {
	call, ok := s.Rhs.(*mlang.CallExpr)
	if !ok {
		a.errorf(s.Pos, "multiple assignment requires a function call on the right-hand side")
		return
	}
	results := a.callResults(call, len(s.Lhs), e)
	for i, lhs := range s.Lhs {
		var rt Type
		if i < len(results) {
			rt = results[i]
		} else {
			rt = RealScalar
		}
		id, ok := lhs.(*mlang.IdentExpr)
		if !ok {
			a.errorf(lhs.NodePos(), "multiple-assignment targets must be plain variables")
			continue
		}
		e[id.Name] = binding{t: rt}
		a.info.Types[id] = rt
	}
}

func (a *analyzer) execIf(s *mlang.IfStmt, e env) {
	a.condExpr(s.Cond, e)
	branches := make([]env, 0, 2+len(s.Elifs))
	b := e.clone()
	a.execStmts(s.Then, b)
	branches = append(branches, b)
	for _, c := range s.Elifs {
		a.condExpr(c.Cond, e)
		b := e.clone()
		a.execStmts(c.Body, b)
		branches = append(branches, b)
	}
	if s.Else != nil {
		b := e.clone()
		a.execStmts(s.Else, b)
		branches = append(branches, b)
	} else {
		branches = append(branches, e.clone())
	}
	// Merge all paths into e.
	first := branches[0]
	for k := range e {
		delete(e, k)
	}
	for k, v := range first {
		e[k] = v
	}
	for _, b := range branches[1:] {
		e.joinWith(b)
	}
}

// execSwitch types a switch like an if/elseif chain: the subject and
// every case value must be scalar, and the post-state is the join of
// every arm (plus fallthrough when there is no otherwise).
func (a *analyzer) execSwitch(s *mlang.SwitchStmt, e env) {
	st, _ := a.expr(s.Subject, e)
	if !st.IsScalar() && st.Shape.Known() {
		a.errorf(s.Subject.NodePos(), "switch subject must be scalar (strings are not supported)")
	}
	var branches []env
	for _, c := range s.Cases {
		vt, _ := a.expr(c.Value, e)
		if !vt.IsScalar() && vt.Shape.Known() {
			a.errorf(c.Value.NodePos(), "case value must be scalar")
		}
		b := e.clone()
		a.execStmts(c.Body, b)
		branches = append(branches, b)
	}
	if s.Otherwise != nil {
		b := e.clone()
		a.execStmts(s.Otherwise, b)
		branches = append(branches, b)
	} else {
		branches = append(branches, e.clone())
	}
	first := branches[0]
	for k := range e {
		delete(e, k)
	}
	for k, v := range first {
		e[k] = v
	}
	for _, b := range branches[1:] {
		e.joinWith(b)
	}
}

func (a *analyzer) condExpr(cond mlang.Expr, e env) {
	t, _ := a.expr(cond, e)
	if !t.IsScalar() && t.Shape.Known() {
		a.errorf(cond.NodePos(), "condition must be scalar, got %s", t.Shape)
	}
}

// loopVarType derives the induction variable type from a range.
func (a *analyzer) loopVarType(rng mlang.Expr, e env) binding {
	r, ok := rng.(*mlang.RangeExpr)
	if !ok {
		t, _ := a.expr(rng, e)
		if !t.IsScalar() {
			a.errorf(rng.NodePos(), "for-loop range must be a:b, a:s:b, or scalar; iterating matrix columns is not supported")
		}
		return binding{t: ScalarType(keepNumeric(t.Class))}
	}
	st, _ := a.expr(r.Start, e)
	pt, _ := a.expr(r.Stop, e)
	c := st.Class.Join(pt.Class)
	if r.Step != nil {
		et, _ := a.expr(r.Step, e)
		c = c.Join(et.Class)
	}
	return binding{t: ScalarType(keepNumeric(c))}
}

func (a *analyzer) execFor(s *mlang.ForStmt, e env) {
	in := e.clone()
	lv := a.loopVarType(s.Range, e)
	a.loopDepth++
	defer func() { a.loopDepth-- }()
	for i := 0; i < maxFixpointIters; i++ {
		before := e.clone()
		e[s.Var] = lv
		a.execStmts(s.Body, e)
		e.joinWith(in) // zero-trip path
		if e.equal(before) {
			return
		}
	}
	a.errorf(s.Pos, "type inference did not converge in for loop")
}

func (a *analyzer) execWhile(s *mlang.WhileStmt, e env) {
	in := e.clone()
	a.loopDepth++
	defer func() { a.loopDepth-- }()
	for i := 0; i < maxFixpointIters; i++ {
		before := e.clone()
		a.condExpr(s.Cond, e)
		a.execStmts(s.Body, e)
		e.joinWith(in)
		if e.equal(before) {
			return
		}
	}
	a.errorf(s.Pos, "type inference did not converge in while loop")
}

// record stores and returns the inferred type/const of e.
func (a *analyzer) record(x mlang.Expr, t Type, c *float64) (Type, *float64) {
	a.info.Types[x] = t
	if c != nil && t.IsScalar() {
		a.info.Consts[x] = *c
	} else {
		delete(a.info.Consts, x)
		c = nil
	}
	return t, c
}

func fp(v float64) *float64 { return &v }

// expr infers the type (and constant value, when statically known) of x.
func (a *analyzer) expr(x mlang.Expr, e env) (Type, *float64) {
	switch x := x.(type) {
	case *mlang.NumberExpr:
		if x.Imag {
			return a.record(x, ComplexScalar, nil)
		}
		if x.Value == math.Trunc(x.Value) && math.Abs(x.Value) < 1e15 {
			return a.record(x, IntScalar, fp(x.Value))
		}
		return a.record(x, RealScalar, fp(x.Value))
	case *mlang.StringExpr:
		a.errorf(x.Pos, "string values are not supported in compiled code")
		return a.record(x, RealScalar, nil)
	case *mlang.IdentExpr:
		if b, ok := e[x.Name]; ok {
			return a.record(x, b.t, b.c)
		}
		if bi := LookupBuiltin(x.Name); bi != nil && bi.Kind == BKConstant {
			t, c := constantValue(x.Name)
			return a.record(x, t, c)
		}
		a.errorf(x.Pos, "undefined variable or function %q", x.Name)
		return a.record(x, RealScalar, nil)
	case *mlang.BinaryExpr:
		return a.binaryExpr(x, e)
	case *mlang.UnaryExpr:
		return a.unaryExpr(x, e)
	case *mlang.TransposeExpr:
		t, _ := a.expr(x.X, e)
		return a.record(x, Type{Class: t.Class, Shape: t.Shape.Transposed()}, nil)
	case *mlang.RangeExpr:
		return a.rangeExpr(x, e)
	case *mlang.MatrixExpr:
		return a.matrixExpr(x, e)
	case *mlang.CallExpr:
		res := a.callResults(x, 1, e)
		if len(res) == 0 {
			return a.record(x, RealScalar, nil)
		}
		c := a.callConst(x)
		return a.record(x, res[0], c)
	case *mlang.EndExpr:
		if len(a.endStack) == 0 {
			a.errorf(x.Pos, "'end' used outside of an index expression")
			return a.record(x, IntScalar, nil)
		}
		d := a.endStack[len(a.endStack)-1]
		if d != DimUnknown {
			return a.record(x, IntScalar, fp(float64(d)))
		}
		return a.record(x, IntScalar, nil)
	case *mlang.ColonExpr:
		a.errorf(x.Pos, "':' is only valid inside an index expression")
		return a.record(x, RealScalar, nil)
	}
	a.errorf(x.NodePos(), "unsupported expression %T", x)
	return RealScalar, nil
}

func constantValue(name string) (Type, *float64) {
	switch name {
	case "pi":
		return RealScalar, fp(math.Pi)
	case "eps":
		return RealScalar, fp(2.220446049250313e-16)
	}
	return RealScalar, nil
}

func (a *analyzer) unaryExpr(x *mlang.UnaryExpr, e env) (Type, *float64) {
	t, c := a.expr(x.X, e)
	switch x.Op {
	case mlang.OpNeg:
		if c != nil {
			return a.record(x, Type{Class: keepNumeric(t.Class), Shape: t.Shape}, fp(-*c))
		}
		return a.record(x, Type{Class: keepNumeric(t.Class), Shape: t.Shape}, nil)
	case mlang.OpPos:
		return a.record(x, Type{Class: keepNumeric(t.Class), Shape: t.Shape}, c)
	case mlang.OpNot:
		if t.Class == Complex {
			a.errorf(x.Pos, "operator ~ is undefined for complex values")
		}
		var nc *float64
		if c != nil {
			if *c == 0 {
				nc = fp(1)
			} else {
				nc = fp(0)
			}
		}
		return a.record(x, Type{Class: Bool, Shape: t.Shape}, nc)
	}
	return a.record(x, t, nil)
}

func (a *analyzer) binaryExpr(x *mlang.BinaryExpr, e env) (Type, *float64) {
	lt, lc := a.expr(x.X, e)
	rt, rc := a.expr(x.Y, e)
	op := x.Op

	fail := func(format string, args ...interface{}) (Type, *float64) {
		a.errorf(x.Pos, format, args...)
		return a.record(x, RealScalar, nil)
	}

	switch op {
	case mlang.OpAdd, mlang.OpSub, mlang.OpElMul, mlang.OpElDiv, mlang.OpElPow:
		sh, err := broadcastShape(lt.Shape, rt.Shape)
		if err != nil {
			return fail("operator %s: %v", op, err)
		}
		cls := arithClass(op, lt.Class, rt.Class)
		var c *float64
		if lc != nil && rc != nil {
			if v, ok := foldArith(op, *lc, *rc); ok {
				c = fp(v)
				if cls == Real && v == math.Trunc(v) && op != mlang.OpElDiv {
					// Keep literal arithmetic on integers integral.
				}
			}
		}
		return a.record(x, Type{Class: cls, Shape: sh}, c)

	case mlang.OpMatMul:
		if lt.IsScalar() || rt.IsScalar() {
			sh, _ := broadcastShape(lt.Shape, rt.Shape)
			cls := arithClass(mlang.OpElMul, lt.Class, rt.Class)
			var c *float64
			if lc != nil && rc != nil {
				c = fp(*lc * *rc)
			}
			return a.record(x, Type{Class: cls, Shape: sh}, c)
		}
		inner, ok := unifyDim(lt.Shape.Cols, rt.Shape.Rows)
		_ = inner
		if !ok {
			return fail("matrix multiply: inner dimensions %s and %s do not agree", lt.Shape, rt.Shape)
		}
		cls := arithClass(mlang.OpElMul, lt.Class, rt.Class)
		return a.record(x, Type{Class: cls, Shape: Shape{Rows: lt.Shape.Rows, Cols: rt.Shape.Cols}}, nil)

	case mlang.OpMatDiv:
		if !rt.IsScalar() {
			return fail("matrix right-division by a non-scalar is not supported (use ./ or a solver)")
		}
		cls := arithClass(mlang.OpElDiv, lt.Class, rt.Class)
		var c *float64
		if lc != nil && rc != nil && *rc != 0 {
			c = fp(*lc / *rc)
		}
		return a.record(x, Type{Class: cls, Shape: lt.Shape}, c)

	case mlang.OpMatLDiv:
		if !lt.IsScalar() {
			return fail("matrix left-division by a non-scalar is not supported")
		}
		cls := arithClass(mlang.OpElDiv, lt.Class, rt.Class)
		var c *float64
		if lc != nil && rc != nil && *lc != 0 {
			c = fp(*rc / *lc)
		}
		return a.record(x, Type{Class: cls, Shape: rt.Shape}, c)

	case mlang.OpMatPow:
		if !lt.IsScalar() || !rt.IsScalar() {
			return fail("matrix power is not supported; use .^ for elementwise power")
		}
		cls := arithClass(mlang.OpElPow, lt.Class, rt.Class)
		var c *float64
		if lc != nil && rc != nil {
			c = fp(math.Pow(*lc, *rc))
		}
		return a.record(x, Type{Class: cls, Shape: ScalarShape}, c)

	case mlang.OpLt, mlang.OpLe, mlang.OpGt, mlang.OpGe, mlang.OpEq, mlang.OpNe:
		sh, err := broadcastShape(lt.Shape, rt.Shape)
		if err != nil {
			return fail("operator %s: %v", op, err)
		}
		if (lt.Class == Complex || rt.Class == Complex) && op != mlang.OpEq && op != mlang.OpNe {
			a.warnf(x.Pos, "ordering comparison of complex values compares real parts only")
		}
		var c *float64
		if lc != nil && rc != nil {
			c = fp(b2f(foldRel(op, *lc, *rc)))
		}
		return a.record(x, Type{Class: Bool, Shape: sh}, c)

	case mlang.OpAndAnd, mlang.OpOrOr:
		if !lt.IsScalar() || !rt.IsScalar() {
			return fail("operators && and || require scalar operands")
		}
		return a.record(x, BoolScalar, nil)

	case mlang.OpAnd, mlang.OpOr:
		sh, err := broadcastShape(lt.Shape, rt.Shape)
		if err != nil {
			return fail("operator %s: %v", op, err)
		}
		return a.record(x, Type{Class: Bool, Shape: sh}, nil)
	}
	return fail("unsupported operator %s", op)
}

// arithClass computes the result class of an arithmetic operator.
func arithClass(op mlang.BinOp, x, y Class) Class {
	j := keepNumeric(x.Join(y))
	switch op {
	case mlang.OpElDiv, mlang.OpMatDiv, mlang.OpMatLDiv:
		if j == Int {
			j = Real // 3/2 == 1.5
		}
	case mlang.OpElPow, mlang.OpMatPow:
		if j == Int {
			j = Real // 2^-1 == 0.5
		}
	}
	return j
}

func foldArith(op mlang.BinOp, x, y float64) (float64, bool) {
	switch op {
	case mlang.OpAdd:
		return x + y, true
	case mlang.OpSub:
		return x - y, true
	case mlang.OpElMul, mlang.OpMatMul:
		return x * y, true
	case mlang.OpElDiv, mlang.OpMatDiv:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case mlang.OpElPow, mlang.OpMatPow:
		return math.Pow(x, y), true
	}
	return 0, false
}

func foldRel(op mlang.BinOp, x, y float64) bool {
	switch op {
	case mlang.OpLt:
		return x < y
	case mlang.OpLe:
		return x <= y
	case mlang.OpGt:
		return x > y
	case mlang.OpGe:
		return x >= y
	case mlang.OpEq:
		return x == y
	case mlang.OpNe:
		return x != y
	}
	return false
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (a *analyzer) rangeExpr(x *mlang.RangeExpr, e env) (Type, *float64) {
	st, sc := a.expr(x.Start, e)
	et, ec := a.expr(x.Stop, e)
	cls := keepNumeric(st.Class.Join(et.Class))
	var stepc *float64 = fp(1)
	if x.Step != nil {
		tt, tc := a.expr(x.Step, e)
		cls = keepNumeric(cls.Join(tt.Class))
		stepc = tc
	}
	if cls == Complex {
		a.errorf(x.Pos, "range endpoints must be real")
		cls = Real
	}
	n := DimUnknown
	if sc != nil && ec != nil && stepc != nil && *stepc != 0 {
		k := math.Floor((*ec-*sc)/(*stepc)) + 1
		if k < 0 {
			k = 0
		}
		n = int(k)
	}
	return a.record(x, Type{Class: cls, Shape: Shape{Rows: 1, Cols: n}}, nil)
}

func (a *analyzer) matrixExpr(x *mlang.MatrixExpr, e env) (Type, *float64) {
	if len(x.Rows) == 0 {
		return a.record(x, Type{Class: Real, Shape: Shape{0, 0}}, nil)
	}
	cls := Bool
	totalRows := 0
	cols := -2 // sentinel: not yet seen
	rowsKnown := true
	for _, row := range x.Rows {
		rRows := -2
		rCols := 0
		colsKnown := true
		for _, el := range row {
			t, _ := a.expr(el, e)
			cls = cls.Join(t.Class)
			if t.Shape.Rows == DimUnknown {
				rRows = DimUnknown
			} else if rRows == -2 {
				rRows = t.Shape.Rows
			} else if rRows != DimUnknown && rRows != t.Shape.Rows {
				a.errorf(el.NodePos(), "vertical dimension mismatch in matrix row")
			}
			if t.Shape.Cols == DimUnknown {
				colsKnown = false
			} else {
				rCols += t.Shape.Cols
			}
		}
		if rRows == -2 {
			rRows = 0
		}
		if !colsKnown {
			rCols = DimUnknown
		}
		if cols == -2 {
			cols = rCols
		} else if cols != DimUnknown && rCols != DimUnknown && cols != rCols {
			a.errorf(x.Pos, "matrix rows have inconsistent lengths (%d vs %d)", cols, rCols)
		} else if rCols == DimUnknown {
			cols = DimUnknown
		}
		if rRows == DimUnknown {
			rowsKnown = false
		} else {
			totalRows += rRows
		}
	}
	if !rowsKnown {
		totalRows = DimUnknown
	}
	if cols == -2 {
		cols = 0
	}
	return a.record(x, Type{Class: cls, Shape: Shape{Rows: totalRows, Cols: cols}}, nil)
}

// callResults resolves a CallExpr (index, builtin, or user call) and
// returns its result types when used with nresults outputs.
func (a *analyzer) callResults(x *mlang.CallExpr, nresults int, e env) []Type {
	id, ok := x.Fun.(*mlang.IdentExpr)
	if !ok {
		a.errorf(x.Pos, "chained indexing/calls are not supported")
		a.expr(x.Fun, e)
		return []Type{RealScalar}
	}

	// Variable in scope: indexing.
	if b, ok := e[id.Name]; ok {
		a.info.Calls[x] = CallIndex
		a.info.Types[id] = b.t
		if nresults > 1 {
			a.errorf(x.Pos, "indexing produces a single value")
		}
		idxTypes := a.indexArgs(x, b.t.Shape, e)
		sh, err := a.indexedShape(b.t.Shape, x, idxTypes)
		if err != nil {
			a.errorf(x.Pos, "%v", err)
			sh = ScalarShape
		}
		return []Type{{Class: b.t.Class, Shape: sh}}
	}

	// Builtin.
	if bi := LookupBuiltin(id.Name); bi != nil {
		a.info.Calls[x] = CallBuiltin
		if len(x.Args) < bi.MinArgs || len(x.Args) > bi.MaxArgs {
			a.errorf(x.Pos, "%s expects %d..%d arguments, got %d", id.Name, bi.MinArgs, bi.MaxArgs, len(x.Args))
			return []Type{RealScalar}
		}
		if nresults > bi.NumResults {
			a.errorf(x.Pos, "%s returns at most %d values", id.Name, bi.NumResults)
		}
		args := make([]Arg, len(x.Args))
		for i, ax := range x.Args {
			if _, isColon := ax.(*mlang.ColonExpr); isColon {
				a.errorf(ax.NodePos(), "':' argument is only valid when indexing")
				args[i] = Arg{Type: RealScalar}
				continue
			}
			t, c := a.expr(ax, e)
			args[i] = Arg{Type: t, Const: c}
		}
		res, err := bi.Result(args, nresults)
		if err != nil {
			a.errorf(x.Pos, "%s: %v", id.Name, err)
			return []Type{RealScalar}
		}
		return res
	}

	// User function.
	if a.decls[id.Name] != nil {
		a.info.Calls[x] = CallUser
		args := make([]Type, len(x.Args))
		for i, ax := range x.Args {
			t, _ := a.expr(ax, e)
			args[i] = t
		}
		inst := a.instantiate(id.Name, args, x.Pos)
		if inst == nil {
			return []Type{RealScalar}
		}
		if nresults > len(inst.Results) {
			a.errorf(x.Pos, "function %s returns %d values, %d requested", id.Name, len(inst.Results), nresults)
		}
		return inst.Results
	}

	a.errorf(x.Pos, "undefined variable or function %q", id.Name)
	return []Type{RealScalar}
}

// callConst computes the constant value of a builtin call when its
// arguments are constants (currently length/numel/size on known shapes).
func (a *analyzer) callConst(x *mlang.CallExpr) *float64 {
	if a.info.Calls[x] != CallBuiltin {
		return nil
	}
	id := x.Fun.(*mlang.IdentExpr)
	if len(x.Args) == 0 {
		return nil
	}
	t := a.info.Types[x.Args[0]]
	switch id.Name {
	case "length":
		if t.Shape.Known() {
			n := t.Shape.Rows
			if t.Shape.Cols > n {
				n = t.Shape.Cols
			}
			if t.Shape.Len() == 0 {
				n = 0 // length of an empty array is 0
			}
			return fp(float64(n))
		}
	case "numel":
		if t.Shape.Known() {
			return fp(float64(t.Shape.Len()))
		}
	case "size":
		if len(x.Args) == 2 {
			if d, ok := a.info.Consts[x.Args[1]]; ok {
				switch int(d) {
				case 1:
					if t.Shape.Rows != DimUnknown {
						return fp(float64(t.Shape.Rows))
					}
				case 2:
					if t.Shape.Cols != DimUnknown {
						return fp(float64(t.Shape.Cols))
					}
				}
			}
		}
	case "abs", "floor", "ceil", "round", "fix", "sqrt":
		if c, ok := a.info.Consts[x.Args[0]]; ok {
			switch id.Name {
			case "abs":
				return fp(math.Abs(c))
			case "floor":
				return fp(math.Floor(c))
			case "ceil":
				return fp(math.Ceil(c))
			case "round":
				return fp(math.Round(c))
			case "fix":
				return fp(math.Trunc(c))
			case "sqrt":
				if c >= 0 {
					return fp(math.Sqrt(c))
				}
			}
		}
	}
	return nil
}

// indexArgs types the index arguments of x (indexing an array of shape
// sh), handling ':' and pushing the right 'end' extents.
func (a *analyzer) indexArgs(x *mlang.CallExpr, sh Shape, e env) []Type {
	n := len(x.Args)
	types := make([]Type, n)
	for i, ax := range x.Args {
		// Determine what 'end' means in this position.
		var extent int
		if n == 1 {
			extent = sh.Len() // linear indexing
		} else if i == 0 {
			extent = sh.Rows
		} else if i == 1 {
			extent = sh.Cols
		} else {
			extent = 1
		}
		if _, isColon := ax.(*mlang.ColonExpr); isColon {
			// ':' selects the whole dimension.
			types[i] = Type{Class: Int, Shape: Shape{Rows: 1, Cols: extent}}
			a.info.Types[ax] = types[i]
			continue
		}
		a.endStack = append(a.endStack, extent)
		t, _ := a.expr(ax, e)
		a.endStack = a.endStack[:len(a.endStack)-1]
		if t.Class == Complex {
			a.errorf(ax.NodePos(), "complex values cannot be used as indices")
		}
		types[i] = t
	}
	if n > 2 {
		a.errorf(x.Pos, "at most 2 index dimensions are supported")
	}
	return types
}

// indexedShape computes the shape of x(args...) given the base shape.
func (a *analyzer) indexedShape(base Shape, x *mlang.CallExpr, idx []Type) (Shape, error) {
	switch len(idx) {
	case 0:
		return base, nil
	case 1:
		it := idx[0]
		if _, isColon := x.Args[0].(*mlang.ColonExpr); isColon {
			// x(:) is always a column vector.
			return Shape{Rows: base.Len(), Cols: 1}, nil
		}
		if it.IsScalar() && it.Class != Bool {
			return ScalarShape, nil
		}
		if !it.Shape.IsVector() && it.Shape.Known() {
			return Shape{}, fmt.Errorf("matrix-valued indices are not supported")
		}
		n := it.Shape.Len()
		if it.Class == Bool {
			// Logical indexing: the mask must conform to the base and the
			// selection count is dynamic.
			if n != DimUnknown && base.Len() != DimUnknown && n != base.Len() {
				return Shape{}, fmt.Errorf("logical index length %d does not match array length %d", n, base.Len())
			}
			n = DimUnknown
		}
		// Result orientation follows the base when the base is a vector,
		// else the index.
		if base.IsColVec() && !base.IsScalar() {
			return Shape{Rows: n, Cols: 1}, nil
		}
		if base.IsRowVec() {
			return Shape{Rows: 1, Cols: n}, nil
		}
		if it.Shape.IsColVec() && !it.Shape.IsScalar() {
			return Shape{Rows: n, Cols: 1}, nil
		}
		return Shape{Rows: 1, Cols: n}, nil
	case 2:
		rsel, csel := idx[0], idx[1]
		if rsel.Class == Bool && !rsel.IsScalar() || csel.Class == Bool && !csel.IsScalar() {
			return Shape{}, fmt.Errorf("logical indexing is supported for linear (single-subscript) indexing only")
		}
		r := selLen(rsel)
		c := selLen(csel)
		return Shape{Rows: r, Cols: c}, nil
	}
	return Shape{}, fmt.Errorf("too many indices")
}

func selLen(t Type) int {
	if t.IsScalar() {
		return 1
	}
	return t.Shape.Len()
}
