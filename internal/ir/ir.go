// Package ir defines the compiler's mid-level intermediate
// representation: a typed, tree-structured loop IR.
//
// All MATLAB matrix operations are lowered to explicit loop nests over
// scalar expressions before reaching this level; arrays appear only
// through Load/Store with linear (column-major, 0-based) indices. The
// vectorizer later widens innermost loops by introducing vector-typed
// expressions (Lanes > 1), and instruction selection introduces
// Intrinsic expressions naming the target processor's custom
// instructions. Both backends (the ANSI C emitter and the ASIP VM
// lowering) consume this one IR.
package ir

import "fmt"

// BaseKind is the element kind of a value.
type BaseKind int

// Element kinds. Bool values are materialized as Int 0/1.
const (
	Int BaseKind = iota // integral (loop counters, indices, sizes)
	Float
	Complex
)

// String returns the kind name.
func (b BaseKind) String() string {
	switch b {
	case Int:
		return "int"
	case Float:
		return "float"
	case Complex:
		return "complex"
	}
	return fmt.Sprintf("BaseKind(%d)", int(b))
}

// Kind is the type of an IR expression: a base kind plus a lane count
// (1 for scalars, the SIMD width for vector values).
type Kind struct {
	Base  BaseKind
	Lanes int
}

// Scalar kinds.
var (
	KInt     = Kind{Int, 1}
	KFloat   = Kind{Float, 1}
	KComplex = Kind{Complex, 1}
)

// Vec returns the vector kind with the given lanes.
func (k Kind) Vec(lanes int) Kind { return Kind{k.Base, lanes} }

// IsVector reports whether the kind has more than one lane.
func (k Kind) IsVector() bool { return k.Lanes > 1 }

// String renders e.g. "float", "complex x4".
func (k Kind) String() string {
	if k.Lanes <= 1 {
		return k.Base.String()
	}
	return fmt.Sprintf("%sx%d", k.Base, k.Lanes)
}

// Sym is a named storage location: a scalar variable or an array.
// Arrays are dense, column-major, dynamically dimensioned; static extents
// are recorded when known (DimUnknown otherwise) for optimization.
type Sym struct {
	ID      int
	Name    string
	IsArray bool
	Elem    BaseKind // element kind (scalar kind for non-arrays)
	// Lanes > 1 marks a vector register variable (introduced by the
	// vectorizer for accumulators); 0 and 1 both mean scalar.
	Lanes int
	// Static dims; -1 when unknown at compile time.
	Rows, Cols int
}

// String renders the symbol as name#id.
func (s *Sym) String() string { return string(appendSym(nil, s)) }

// Kind returns the value kind of a non-array symbol.
func (s *Sym) Kind() Kind {
	if s.Lanes > 1 {
		return Kind{s.Elem, s.Lanes}
	}
	return Kind{s.Elem, 1}
}

// Func is one compiled function.
type Func struct {
	Name    string
	Params  []*Sym
	Results []*Sym
	Locals  []*Sym // includes Results
	Body    []Stmt

	nextID int
}

// NewFunc creates an empty function.
func NewFunc(name string) *Func { return &Func{Name: name} }

// NewSym allocates a fresh symbol owned by the function.
func (f *Func) NewSym(name string, elem BaseKind, isArray bool) *Sym {
	f.nextID++
	return &Sym{ID: f.nextID, Name: name, Elem: elem, IsArray: isArray, Rows: -1, Cols: -1}
}

// Op enumerates scalar/vector operations used by Bin and Un.
type Op int

// Binary operations.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem // remainder with sign of divisor (MATLAB mod) computed in lowering
	OpPow
	OpMin
	OpMax
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpAnd
	OpOr
	OpAtan2 // atan2(y, x), float only

	// Unary operations.
	OpNeg
	OpNot
	OpSqrt
	OpSin
	OpCos
	OpTan
	OpAsin
	OpAcos
	OpAtan
	OpSinh
	OpCosh
	OpTanh
	OpExp
	OpLog
	OpFloor
	OpCeil
	OpRound
	OpTrunc
	OpAbs // |x|; complex → float magnitude
	OpSign
	OpRe    // real part (complex → float)
	OpIm    // imaginary part (complex → float)
	OpConj  // complex conjugate
	OpAngle // atan2(im, re)

	// Conversions.
	OpToInt     // float → int (truncation toward zero after rounding guard)
	OpToFloat   // int → float
	OpToComplex // int/float → complex
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpPow: "pow", OpMin: "min", OpMax: "max",
	OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge", OpEq: "eq", OpNe: "ne",
	OpAnd: "and", OpOr: "or", OpAtan2: "atan2",
	OpNeg: "neg", OpNot: "not", OpSqrt: "sqrt", OpSin: "sin", OpCos: "cos",
	OpTan: "tan", OpAsin: "asin", OpAcos: "acos", OpAtan: "atan",
	OpSinh: "sinh", OpCosh: "cosh", OpTanh: "tanh",
	OpExp: "exp", OpLog: "log", OpFloor: "floor",
	OpCeil: "ceil", OpRound: "round", OpTrunc: "trunc", OpAbs: "abs",
	OpSign: "sign", OpRe: "re", OpIm: "im", OpConj: "conj", OpAngle: "angle",
	OpToInt: "toint", OpToFloat: "tofloat", OpToComplex: "tocomplex",
}

// String returns the op mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsCompare reports whether the op yields a 0/1 integer truth value.
func (o Op) IsCompare() bool {
	switch o {
	case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
		return true
	}
	return false
}

// Commutative reports whether a op b == b op a.
func (o Op) Commutative() bool {
	switch o {
	case OpAdd, OpMul, OpMin, OpMax, OpEq, OpNe, OpAnd, OpOr:
		return true
	}
	return false
}

// Expr is a side-effect-free IR expression.
type Expr interface {
	Kind() Kind
}

// ConstInt is an integer literal.
type ConstInt struct{ V int64 }

// ConstFloat is a float literal.
type ConstFloat struct{ V float64 }

// ConstComplex is a complex literal.
type ConstComplex struct{ V complex128 }

// VarRef reads a scalar variable.
type VarRef struct{ Sym *Sym }

// Load reads arr[index] (linear, 0-based, column-major).
type Load struct {
	Arr   *Sym
	Index Expr // KInt
}

// Dim reads a runtime array extent.
type Dim struct {
	Arr   *Sym
	Which DimKind
}

// DimKind selects which extent Dim reads.
type DimKind int

// Extents.
const (
	DimRows DimKind = iota
	DimCols
	DimLen // Rows*Cols
)

// Bin is a binary operation. K is the result kind (comparisons yield
// KInt even over float operands).
type Bin struct {
	Op   Op
	X, Y Expr
	K    Kind
}

// Un is a unary operation (including conversions). K is the result kind.
type Un struct {
	Op Op
	X  Expr
	K  Kind
}

// VecLoad reads Lanes elements starting at arr[index], spaced Stride
// apart (Stride 0 is treated as 1, the contiguous case; other strides
// require the target's strided-load instruction).
type VecLoad struct {
	Arr    *Sym
	Index  Expr // KInt, first lane
	Stride int64
	K      Kind // Lanes > 1
}

// StrideOr1 returns the effective stride.
func (e *VecLoad) StrideOr1() int64 {
	if e.Stride == 0 {
		return 1
	}
	return e.Stride
}

// Broadcast splats a scalar into all lanes.
type Broadcast struct {
	X Expr
	K Kind
}

// Ramp builds the vector {base, base+step, base+2*step, ...}; it is the
// vectorized form of an affine function of the loop counter.
type Ramp struct {
	Base Expr // KInt scalar
	Step int64
	K    Kind // integer vector
}

// Reduce folds a vector to a scalar with the given associative op
// (OpAdd, OpMin, OpMax).
type Reduce struct {
	Op Op
	X  Expr // vector
	K  Kind // scalar result
}

// Select is a lane-wise conditional: lane j is Then[j] where Cond[j] is
// nonzero, else Else[j]. It is introduced by the vectorizer's
// if-conversion; both sides are evaluated (predicated execution), so
// if-conversion must only speculate fault-free work.
type Select struct {
	Cond Expr // integer truth vector (or scalar)
	Then Expr
	Else Expr
	K    Kind
}

// Intrinsic is a call to a target-specific custom instruction chosen by
// instruction selection (e.g. cmul, cmac, fma, vfma). Semantically it is
// a pure function of its arguments; Name matches a pdesc instruction.
// For mined instructions (which the built-in catalog in EvalIntrinsic
// has never heard of) Sem carries the pattern text defining their
// behaviour; it is empty for the built-in family.
type Intrinsic struct {
	Name string
	Args []Expr
	K    Kind
	Sem  string
}

// Kind implementations.
func (e *ConstInt) Kind() Kind     { return KInt }
func (e *ConstFloat) Kind() Kind   { return KFloat }
func (e *ConstComplex) Kind() Kind { return KComplex }
func (e *VarRef) Kind() Kind       { return e.Sym.Kind() }
func (e *Load) Kind() Kind         { return Kind{e.Arr.Elem, 1} }
func (e *Dim) Kind() Kind          { return KInt }
func (e *Bin) Kind() Kind          { return e.K }
func (e *Un) Kind() Kind           { return e.K }
func (e *VecLoad) Kind() Kind      { return e.K }
func (e *Broadcast) Kind() Kind    { return e.K }
func (e *Ramp) Kind() Kind         { return e.K }
func (e *Select) Kind() Kind       { return e.K }
func (e *Reduce) Kind() Kind       { return e.K }
func (e *Intrinsic) Kind() Kind    { return e.K }

// Stmt is an IR statement.
type Stmt interface {
	stmt()
}

// Assign writes a scalar variable.
type Assign struct {
	Dst *Sym
	Src Expr
}

// Store writes arr[index] = val. For vector-kinded val, Lanes contiguous
// elements starting at index are written.
type Store struct {
	Arr   *Sym
	Index Expr
	Val   Expr
}

// Alloc (re)allocates an array with the given extents, zero-filled.
type Alloc struct {
	Arr        *Sym
	Rows, Cols Expr // KInt
}

// For is a counted loop: for v = lo; (step>0 ? v<=hi : v>=hi); v += step.
// Step is a compile-time constant; the vectorizer widens Step to the
// SIMD width.
type For struct {
	Var  *Sym
	Lo   Expr
	Hi   Expr
	Step int64
	Body []Stmt
}

// If is a conditional. Cond is KInt (0 = false).
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// While loops while Cond is nonzero.
type While struct {
	Cond Expr
	Body []Stmt
}

// Break exits the innermost loop.
type Break struct{}

// Continue jumps to the next iteration of the innermost loop.
type Continue struct{}

// Return exits the function.
type Return struct{}

func (*Assign) stmt()   {}
func (*Store) stmt()    {}
func (*Alloc) stmt()    {}
func (*For) stmt()      {}
func (*If) stmt()       {}
func (*While) stmt()    {}
func (*Break) stmt()    {}
func (*Continue) stmt() {}
func (*Return) stmt()   {}

// Convenience constructors used throughout lowering and the passes.

// CI returns an integer constant.
func CI(v int64) *ConstInt { return &ConstInt{V: v} }

// CF returns a float constant.
func CF(v float64) *ConstFloat { return &ConstFloat{V: v} }

// CC returns a complex constant.
func CC(v complex128) *ConstComplex { return &ConstComplex{V: v} }

// V returns a variable reference.
func V(s *Sym) *VarRef { return &VarRef{Sym: s} }

// B returns a binary expression whose kind is derived from the operands
// (comparisons yield KInt).
func B(op Op, x, y Expr) *Bin {
	k := x.Kind()
	if y.Kind().Base > k.Base {
		k = Kind{y.Kind().Base, k.Lanes}
	}
	if op.IsCompare() || op == OpAnd || op == OpOr {
		k = Kind{Int, k.Lanes}
	}
	return &Bin{Op: op, X: x, Y: y, K: k}
}

// U returns a unary expression with an explicit result kind.
func U(op Op, x Expr, k Kind) *Un { return &Un{Op: op, X: x, K: k} }

// Add/Mul/Sub on integer index expressions, with trivial folding to keep
// generated index arithmetic readable.
func IAdd(x, y Expr) Expr {
	if c, ok := x.(*ConstInt); ok && c.V == 0 {
		return y
	}
	if c, ok := y.(*ConstInt); ok && c.V == 0 {
		return x
	}
	if a, ok := x.(*ConstInt); ok {
		if b, ok := y.(*ConstInt); ok {
			return CI(a.V + b.V)
		}
	}
	return B(OpAdd, x, y)
}

// ISub subtracts integer index expressions with trivial folding.
func ISub(x, y Expr) Expr {
	if c, ok := y.(*ConstInt); ok && c.V == 0 {
		return x
	}
	if a, ok := x.(*ConstInt); ok {
		if b, ok := y.(*ConstInt); ok {
			return CI(a.V - b.V)
		}
	}
	return B(OpSub, x, y)
}

// IMul multiplies integer index expressions with trivial folding.
func IMul(x, y Expr) Expr {
	if c, ok := x.(*ConstInt); ok {
		if c.V == 1 {
			return y
		}
		if c.V == 0 {
			return CI(0)
		}
	}
	if c, ok := y.(*ConstInt); ok {
		if c.V == 1 {
			return x
		}
		if c.V == 0 {
			return CI(0)
		}
	}
	if a, ok := x.(*ConstInt); ok {
		if b, ok := y.(*ConstInt); ok {
			return CI(a.V * b.V)
		}
	}
	return B(OpMul, x, y)
}
