package ir

import (
	"math"
	"testing"
)

// exprStrCases covers every Expr kind, with the float and complex
// constants fmt renders specially (signed zeros, NaN, infinities) and
// the strided and negative-stride vector loads.
func exprStrCases() []struct {
	name string
	e    Expr
} {
	f := NewFunc("k")
	x := f.NewSym("x", Float, true)
	z := f.NewSym("z", Complex, true)
	i := f.NewSym("i", Int, false)
	s := f.NewSym("s", Float, false)
	acc := &Sym{ID: 12, Name: "acc", Elem: Float, Lanes: 4}
	f4 := Kind{Float, 4}
	i4 := Kind{Int, 4}
	return []struct {
		name string
		e    Expr
	}{
		{"int", CI(42)},
		{"int-neg", CI(-9223372036854775808)},
		{"float", CF(1.5)},
		{"float-int", CF(3)},
		{"float-zero", CF(0)},
		{"float-negzero", CF(math.Copysign(0, -1))},
		{"float-big", CF(1e21)},
		{"float-small", CF(-1.25e-7)},
		{"float-third", CF(1.0 / 3)},
		{"float-nan", CF(math.NaN())},
		{"float-inf", CF(math.Inf(1))},
		{"float-neginf", CF(math.Inf(-1))},
		{"complex", CC(complex(1, 2))},
		{"complex-negimag", CC(complex(-0.5, -2.25))},
		{"complex-zero", CC(0)},
		{"complex-negzero", CC(complex(math.Copysign(0, -1), math.Copysign(0, -1)))},
		{"complex-big", CC(complex(1e21, 1e-21))},
		{"complex-nan", CC(complex(math.NaN(), math.NaN()))},
		{"complex-inf", CC(complex(math.Inf(1), math.Inf(-1)))},
		{"complex-inf2", CC(complex(math.Inf(-1), math.Inf(1)))},
		{"var", V(i)},
		{"var-vector", V(acc)},
		{"load", &Load{Arr: x, Index: V(i)}},
		{"load-nested", &Load{Arr: x, Index: B(OpAdd, V(i), CI(1))}},
		{"dim-rows", &Dim{Arr: x, Which: DimRows}},
		{"dim-cols", &Dim{Arr: z, Which: DimCols}},
		{"dim-len", &Dim{Arr: x, Which: DimLen}},
		{"bin", B(OpMul, V(s), &Load{Arr: x, Index: V(i)})},
		{"bin-cmp", B(OpLt, V(i), CI(10))},
		{"bin-unknown-op", &Bin{Op: Op(999), X: CI(1), Y: CI(2), K: KInt}},
		{"un", U(OpSqrt, V(s), KFloat)},
		{"un-conv", U(OpToComplex, V(s), KComplex)},
		{"vecload", &VecLoad{Arr: x, Index: V(i), K: f4}},
		{"vecload-stride1", &VecLoad{Arr: x, Index: V(i), Stride: 1, K: f4}},
		{"vecload-strided", &VecLoad{Arr: x, Index: IMul(V(i), CI(3)), Stride: 3, K: f4}},
		{"vecload-negstride", &VecLoad{Arr: z, Index: V(i), Stride: -2, K: Kind{Complex, 2}}},
		{"broadcast", &Broadcast{X: V(s), K: f4}},
		{"ramp", &Ramp{Base: V(i), Step: 1, K: i4}},
		{"ramp-neg", &Ramp{Base: CI(7), Step: -2, K: i4}},
		{"select", &Select{Cond: B(OpGt, &Ramp{Base: V(i), Step: 1, K: i4}, &Broadcast{X: CI(3), K: i4}),
			Then: &VecLoad{Arr: x, Index: V(i), K: f4}, Else: &Broadcast{X: CF(0), K: f4}, K: f4}},
		{"reduce", &Reduce{Op: OpAdd, X: V(acc), K: KFloat}},
		{"reduce-max", &Reduce{Op: OpMax, X: &VecLoad{Arr: x, Index: CI(0), K: f4}, K: KFloat}},
		{"intrinsic", &Intrinsic{Name: "fma", Args: []Expr{V(s), &Load{Arr: x, Index: V(i)}, CF(2)}, K: KFloat}},
		{"intrinsic-complex", &Intrinsic{Name: "cmac", Args: []Expr{&Load{Arr: z, Index: V(i)}, CC(complex(0, 1)), U(OpConj, &Load{Arr: z, Index: V(i)}, KComplex)}, K: KComplex}},
		{"intrinsic-noargs", &Intrinsic{Name: "isx0", K: KFloat}},
		{"nil", nil},
	}
}

// TestExprStrPinned pins ExprStr for every Expr kind. The strings were
// taken from the fmt-based renderer AppendExprStr replaced; CSE keys
// are these strings, so a change here changes which expressions CSE
// merges.
func TestExprStrPinned(t *testing.T) {
	want := map[string]string{
		"int":               "42",
		"int-neg":           "-9223372036854775808",
		"float":             "1.5f",
		"float-int":         "3f",
		"float-zero":        "0f",
		"float-negzero":     "-0f",
		"float-big":         "1e+21f",
		"float-small":       "-1.25e-07f",
		"float-third":       "0.3333333333333333f",
		"float-nan":         "NaNf",
		"float-inf":         "+Inff",
		"float-neginf":      "-Inff",
		"complex":           "(1+2i)",
		"complex-negimag":   "(-0.5-2.25i)",
		"complex-zero":      "(0+0i)",
		"complex-negzero":   "(-0-0i)",
		"complex-big":       "(1e+21+1e-21i)",
		"complex-nan":       "(NaN+NaNi)",
		"complex-inf":       "(+Inf-Infi)",
		"complex-inf2":      "(-Inf+Infi)",
		"var":               "i#3",
		"var-vector":        "acc#12",
		"load":              "x#1[i#3]",
		"load-nested":       "x#1[add(i#3, 1)]",
		"dim-rows":          "rows(x#1)",
		"dim-cols":          "cols(z#2)",
		"dim-len":           "len(x#1)",
		"bin":               "mul(s#4, x#1[i#3])",
		"bin-cmp":           "lt(i#3, 10)",
		"bin-unknown-op":    "Op(999)(1, 2)",
		"un":                "sqrt(s#4)",
		"un-conv":           "tocomplex(s#4)",
		"vecload":           "vload4(x#1, i#3)",
		"vecload-stride1":   "vload4(x#1, i#3)",
		"vecload-strided":   "vload4.s3(x#1, mul(i#3, 3))",
		"vecload-negstride": "vload2.s-2(z#2, i#3)",
		"broadcast":         "splat4(s#4)",
		"ramp":              "ramp4(i#3, 1)",
		"ramp-neg":          "ramp4(7, -2)",
		"select":            "sel(gt(ramp4(i#3, 1), splat4(3)), vload4(x#1, i#3), splat4(0f))",
		"reduce":            "reduce_add(acc#12)",
		"reduce-max":        "reduce_max(vload4(x#1, 0))",
		"intrinsic":         "@fma(s#4, x#1[i#3], 2f)",
		"intrinsic-complex": "@cmac(z#2[i#3], (0+1i), conj(z#2[i#3]))",
		"intrinsic-noargs":  "@isx0()",
		"nil":               "<?expr <nil>>",
	}
	cases := exprStrCases()
	if len(cases) != len(want) {
		t.Fatalf("%d cases, %d pinned strings", len(cases), len(want))
	}
	buf := []byte("prefix:")
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Fatalf("case %s has no pinned string", c.name)
		}
		if got := ExprStr(c.e); got != w {
			t.Errorf("%s: ExprStr = %q, want %q", c.name, got, w)
		}
		// AppendExprStr extends the buffer it is given, as CSE keys
		// built into a reused buffer rely on.
		if got := string(AppendExprStr(buf[:7], c.e)); got != "prefix:"+w {
			t.Errorf("%s: AppendExprStr = %q, want %q", c.name, got, "prefix:"+w)
		}
	}
	if got := (&Sym{ID: 7, Name: "tmp"}).String(); got != "tmp#7" {
		t.Errorf("Sym.String = %q, want tmp#7", got)
	}
}
