package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Print renders a function in a stable, human-readable text form used by
// golden tests and -emit=ir.
func Print(f *Func) string {
	var b strings.Builder
	b.WriteString("func " + f.Name + "(")
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(symDecl(p))
	}
	b.WriteString(")")
	if len(f.Results) > 0 {
		b.WriteString(" -> (")
		for i, r := range f.Results {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(symDecl(r))
		}
		b.WriteString(")")
	}
	b.WriteString(" {\n")
	printStmts(&b, f.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

func symDecl(s *Sym) string {
	if s.IsArray {
		dim := func(n int) string {
			if n < 0 {
				return "?"
			}
			return strconv.Itoa(n)
		}
		return fmt.Sprintf("%s: %s[%sx%s]", s, s.Elem, dim(s.Rows), dim(s.Cols))
	}
	return fmt.Sprintf("%s: %s", s, s.Elem)
}

func printStmts(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range stmts {
		printStmt(b, s, ind, depth)
	}
}

func printStmt(b *strings.Builder, s Stmt, ind string, depth int) {
	switch s := s.(type) {
	case *Assign:
		fmt.Fprintf(b, "%s%s = %s\n", ind, s.Dst, ExprStr(s.Src))
	case *Store:
		fmt.Fprintf(b, "%s%s[%s] = %s\n", ind, s.Arr, ExprStr(s.Index), ExprStr(s.Val))
	case *Alloc:
		fmt.Fprintf(b, "%salloc %s[%s, %s]\n", ind, s.Arr, ExprStr(s.Rows), ExprStr(s.Cols))
	case *For:
		fmt.Fprintf(b, "%sfor %s = %s .. %s step %d {\n", ind, s.Var, ExprStr(s.Lo), ExprStr(s.Hi), s.Step)
		printStmts(b, s.Body, depth+1)
		b.WriteString(ind + "}\n")
	case *If:
		fmt.Fprintf(b, "%sif %s {\n", ind, ExprStr(s.Cond))
		printStmts(b, s.Then, depth+1)
		if len(s.Else) > 0 {
			b.WriteString(ind + "} else {\n")
			printStmts(b, s.Else, depth+1)
		}
		b.WriteString(ind + "}\n")
	case *While:
		fmt.Fprintf(b, "%swhile %s {\n", ind, ExprStr(s.Cond))
		printStmts(b, s.Body, depth+1)
		b.WriteString(ind + "}\n")
	case *Break:
		b.WriteString(ind + "break\n")
	case *Continue:
		b.WriteString(ind + "continue\n")
	case *Return:
		b.WriteString(ind + "return\n")
	default:
		fmt.Fprintf(b, "%s<?stmt %T>\n", ind, s)
	}
}

// ExprStr renders an expression.
func ExprStr(e Expr) string { return string(AppendExprStr(nil, e)) }

// AppendExprStr appends ExprStr(e) to b and returns the extended
// buffer. It is the one expression renderer: ExprStr, Sym.String and
// the optimizer's CSE keys all go through it, so a key built into a
// reused buffer is byte-identical to the printed form.
func AppendExprStr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case *ConstInt:
		return strconv.AppendInt(b, e.V, 10)
	case *ConstFloat:
		return append(appendFloat(b, e.V, false), 'f')
	case *ConstComplex:
		b = append(b, '(')
		b = appendFloat(b, real(e.V), false)
		b = appendFloat(b, imag(e.V), true)
		return append(b, "i)"...)
	case *VarRef:
		return appendSym(b, e.Sym)
	case *Load:
		b = appendSym(b, e.Arr)
		b = append(b, '[')
		b = AppendExprStr(b, e.Index)
		return append(b, ']')
	case *Dim:
		b = append(b, [...]string{"rows", "cols", "len"}[e.Which]...)
		b = append(b, '(')
		b = appendSym(b, e.Arr)
		return append(b, ')')
	case *Bin:
		return appendCall(b, e.Op.String(), e.X, e.Y)
	case *Un:
		return appendCall(b, e.Op.String(), e.X)
	case *VecLoad:
		b = append(b, "vload"...)
		b = strconv.AppendInt(b, int64(e.K.Lanes), 10)
		if s := e.StrideOr1(); s != 1 {
			b = append(b, ".s"...)
			b = strconv.AppendInt(b, s, 10)
		}
		b = append(b, '(')
		b = appendSym(b, e.Arr)
		b = append(b, ", "...)
		b = AppendExprStr(b, e.Index)
		return append(b, ')')
	case *Broadcast:
		b = append(b, "splat"...)
		b = strconv.AppendInt(b, int64(e.K.Lanes), 10)
		return appendCall(b, "", e.X)
	case *Ramp:
		b = append(b, "ramp"...)
		b = strconv.AppendInt(b, int64(e.K.Lanes), 10)
		b = append(b, '(')
		b = AppendExprStr(b, e.Base)
		b = append(b, ", "...)
		b = strconv.AppendInt(b, e.Step, 10)
		return append(b, ')')
	case *Select:
		return appendCall(b, "sel", e.Cond, e.Then, e.Else)
	case *Reduce:
		b = append(b, "reduce_"...)
		return appendCall(b, e.Op.String(), e.X)
	case *Intrinsic:
		b = append(b, '@')
		return appendCall(b, e.Name, e.Args...)
	}
	return fmt.Appendf(b, "<?expr %T>", e)
}

// appendCall renders name(arg, arg, ...).
func appendCall(b []byte, name string, args ...Expr) []byte {
	b = append(b, name...)
	b = append(b, '(')
	for i, a := range args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = AppendExprStr(b, a)
	}
	return append(b, ')')
}

// appendSym renders a symbol as name#id (see Sym.String).
func appendSym(b []byte, s *Sym) []byte {
	if s == nil {
		return append(b, "<nil>"...)
	}
	b = append(b, s.Name...)
	b = append(b, '#')
	return strconv.AppendInt(b, int64(s.ID), 10)
}

// appendFloat renders v as fmt's %g does (%+g with sign), which is
// strconv's shortest 'g' form except that %g omits a NaN's sign and
// %+g adds one to every value not already signed.
func appendFloat(b []byte, v float64, sign bool) []byte {
	if v != v {
		if sign {
			b = append(b, '+')
		}
		return append(b, "NaN"...)
	}
	if sign && !math.Signbit(v) && !math.IsInf(v, 1) {
		b = append(b, '+')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
