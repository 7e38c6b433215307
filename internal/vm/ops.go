package vm

import (
	"fmt"
	"math"
	"math/cmplx"

	"mat2c/internal/ir"
)

// execBin executes an OpBin instruction, charging its cost class.
func (m *Machine) execBin(in *Instr, regs []vmval) (vmval, error) {
	m.charge(binClass(in))
	a, b := regs[in.A], regs[in.B]
	if in.K.Lanes <= 1 {
		return binScalarVal(in.BOp, in.OpBase, in.K.Base, a, b)
	}
	// Vector: lane-wise at OpBase; scalar operands broadcast.
	lanes := make([]complex128, in.K.Lanes)
	for j := range lanes {
		r, err := binLane(in.BOp, in.OpBase, in.K.Base, a.lane(j), b.lane(j))
		if err != nil {
			return vmval{}, err
		}
		lanes[j] = r
	}
	return vmval{lanes: lanes}, nil
}

// binScalarVal computes a scalar binary operation at the given
// computation base with the result materialized at kBase (the
// reference interpreter's form; the compiled engine's binScalarInto and
// fused opcodes must compute exactly the same values).
func binScalarVal(op ir.Op, opBase, kBase ir.BaseKind, a, b vmval) (vmval, error) {
	switch opBase {
	case ir.Int:
		r, err := binInt(op, a.i, b.i)
		if err != nil {
			return vmval{}, err
		}
		return fromInt(r), nil
	case ir.Float:
		r := binFloat(op, a.f, b.f)
		if kBase == ir.Int {
			return fromInt(int64(r)), nil
		}
		return fromFloat(r), nil
	default:
		r, err := binComplex(op, a.c, b.c)
		if err != nil {
			return vmval{}, err
		}
		if kBase == ir.Int {
			return fromInt(int64(real(r))), nil
		}
		return fromComplex(r), nil
	}
}

// binLane computes one vector lane of a binary operation at the given
// computation base, normalizing non-complex results to their real part.
func binLane(op ir.Op, opBase, kBase ir.BaseKind, x, y complex128) (complex128, error) {
	var r complex128
	switch opBase {
	case ir.Complex:
		var err error
		r, err = binComplex(op, x, y)
		if err != nil {
			return 0, err
		}
	case ir.Int:
		iv, err := binInt(op, int64(real(x)), int64(real(y)))
		if err != nil {
			return 0, err
		}
		r = complex(float64(iv), 0)
	default:
		r = complex(binFloat(op, real(x), real(y)), 0)
	}
	if kBase != ir.Complex {
		r = complex(real(r), 0)
	}
	return r, nil
}

// binClass maps a binary instruction to its cycle-cost class.
func binClass(in *Instr) string {
	if in.K.Lanes > 1 {
		// A vector complex multiply/divide without a custom instruction
		// is a multi-issue shuffle+mul+addsub sequence: charge the
		// expansion, not a single vector op.
		if in.OpBase == ir.Complex {
			switch in.BOp {
			case ir.OpMul:
				return "cmul"
			case ir.OpDiv:
				return "cdiv"
			}
		}
		return "vop"
	}
	switch in.OpBase {
	case ir.Int:
		switch in.BOp {
		case ir.OpAdd:
			return "iadd"
		case ir.OpSub:
			return "isub"
		case ir.OpMul:
			return "imul"
		case ir.OpDiv, ir.OpRem:
			return "idiv"
		case ir.OpPow:
			return "fpow"
		default:
			return "icmp"
		}
	case ir.Float:
		switch in.BOp {
		case ir.OpAdd:
			return "fadd"
		case ir.OpSub:
			return "fsub"
		case ir.OpMul:
			return "fmul"
		case ir.OpDiv:
			return "fdiv"
		case ir.OpRem:
			return "frem"
		case ir.OpPow:
			return "fpow"
		default:
			return "fcmp"
		}
	default:
		switch in.BOp {
		case ir.OpAdd:
			return "cadd"
		case ir.OpSub:
			return "csub"
		case ir.OpMul:
			return "cmul"
		case ir.OpDiv:
			return "cdiv"
		default:
			return "fcmp"
		}
	}
}

func binInt(op ir.Op, x, y int64) (int64, error) {
	switch op {
	case ir.OpAdd:
		return x + y, nil
	case ir.OpSub:
		return x - y, nil
	case ir.OpMul:
		return x * y, nil
	case ir.OpDiv:
		if y == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return x / y, nil
	case ir.OpRem:
		if y == 0 {
			return x, nil
		}
		return x % y, nil
	case ir.OpPow:
		return int64(math.Pow(float64(x), float64(y))), nil
	case ir.OpMin:
		if x < y {
			return x, nil
		}
		return y, nil
	case ir.OpMax:
		if x > y {
			return x, nil
		}
		return y, nil
	case ir.OpLt:
		return b2i(x < y), nil
	case ir.OpLe:
		return b2i(x <= y), nil
	case ir.OpGt:
		return b2i(x > y), nil
	case ir.OpGe:
		return b2i(x >= y), nil
	case ir.OpEq:
		return b2i(x == y), nil
	case ir.OpNe:
		return b2i(x != y), nil
	case ir.OpAnd:
		return b2i(x != 0 && y != 0), nil
	case ir.OpOr:
		return b2i(x != 0 || y != 0), nil
	}
	return 0, fmt.Errorf("op %s not defined on int", op)
}

func binFloat(op ir.Op, x, y float64) float64 {
	switch op {
	case ir.OpAdd:
		return x + y
	case ir.OpSub:
		return x - y
	case ir.OpMul:
		return x * y
	case ir.OpDiv:
		return x / y
	case ir.OpRem:
		return math.Mod(x, y)
	case ir.OpPow:
		return math.Pow(x, y)
	case ir.OpMin:
		return math.Min(x, y)
	case ir.OpMax:
		return math.Max(x, y)
	case ir.OpAtan2:
		return math.Atan2(x, y)
	case ir.OpLt:
		return bf(x < y)
	case ir.OpLe:
		return bf(x <= y)
	case ir.OpGt:
		return bf(x > y)
	case ir.OpGe:
		return bf(x >= y)
	case ir.OpEq:
		return bf(x == y)
	case ir.OpNe:
		return bf(x != y)
	case ir.OpAnd:
		return bf(x != 0 && y != 0)
	case ir.OpOr:
		return bf(x != 0 || y != 0)
	}
	return math.NaN()
}

func binComplex(op ir.Op, x, y complex128) (complex128, error) {
	switch op {
	case ir.OpAdd:
		return x + y, nil
	case ir.OpSub:
		return x - y, nil
	case ir.OpMul:
		return x * y, nil
	case ir.OpDiv:
		return x / y, nil
	case ir.OpPow:
		return cmplx.Pow(x, y), nil
	case ir.OpEq:
		return complex(bf(x == y), 0), nil
	case ir.OpNe:
		return complex(bf(x != y), 0), nil
	}
	return 0, fmt.Errorf("op %s not defined on complex", op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func bf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// scalarBin computes a reduction step at the given base over complex
// lane values.
func scalarBin(op ir.Op, base ir.BaseKind, a, b complex128) (complex128, error) {
	switch base {
	case ir.Int:
		r, err := binInt(op, int64(real(a)), int64(real(b)))
		return complex(float64(r), 0), err
	case ir.Float:
		return complex(binFloat(op, real(a), real(b)), 0), nil
	default:
		return binComplex(op, a, b)
	}
}

// execUn executes an OpUn instruction.
func (m *Machine) execUn(in *Instr, regs []vmval) (vmval, error) {
	m.chargeUn(in)
	a := regs[in.A]
	if in.K.Lanes <= 1 {
		return unScalar(in.BOp, in.OpBase, in.K.Base, a)
	}
	lanes := make([]complex128, in.K.Lanes)
	for j := range lanes {
		v, err := unLane(in.BOp, in.OpBase, in.K.Base, a.lane(j))
		if err != nil {
			return vmval{}, err
		}
		lanes[j] = v
	}
	return vmval{lanes: lanes}, nil
}

func (m *Machine) chargeUn(in *Instr) {
	class := unClass(in.BOp, in.OpBase)
	if in.K.Lanes > 1 {
		switch in.BOp {
		case ir.OpSqrt, ir.OpSin, ir.OpCos, ir.OpTan, ir.OpExp, ir.OpLog,
			ir.OpAngle, ir.OpAsin, ir.OpAcos, ir.OpAtan, ir.OpSinh,
			ir.OpCosh, ir.OpTanh:
			// No vector transcendental unit: serialize per lane.
			m.chargeN(class, int64(in.K.Lanes))
			return
		case ir.OpAbs:
			if in.OpBase == ir.Complex {
				m.chargeN(class, int64(in.K.Lanes))
				return
			}
		}
		m.charge("vop")
		return
	}
	m.charge(class)
}

func unClass(op ir.Op, base ir.BaseKind) string {
	switch op {
	case ir.OpNeg:
		if base == ir.Complex {
			return "cneg"
		}
		return "fneg"
	case ir.OpNot:
		return "icmp"
	case ir.OpSqrt:
		return "fsqrt"
	case ir.OpSin, ir.OpCos, ir.OpTan, ir.OpAsin, ir.OpAcos, ir.OpAtan,
		ir.OpSinh, ir.OpCosh, ir.OpTanh:
		return "ftrig"
	case ir.OpExp, ir.OpLog:
		return "fexp"
	case ir.OpFloor, ir.OpCeil, ir.OpRound, ir.OpTrunc, ir.OpToInt:
		return "fround"
	case ir.OpAbs:
		if base == ir.Complex {
			return "cabs"
		}
		return "fabs"
	case ir.OpSign:
		return "fsign"
	case ir.OpRe, ir.OpIm:
		return "fmov"
	case ir.OpConj:
		return "cconj"
	case ir.OpAngle:
		return "cabs"
	case ir.OpToFloat, ir.OpToComplex:
		return "conv"
	}
	return "fmov"
}

func unScalar(op ir.Op, base, kBase ir.BaseKind, a vmval) (vmval, error) {
	switch op {
	case ir.OpNeg:
		switch base {
		case ir.Int:
			return fromInt(-a.i), nil
		case ir.Float:
			return fromFloat(-a.f), nil
		default:
			return fromComplex(-a.c), nil
		}
	case ir.OpNot:
		var nz bool
		switch base {
		case ir.Int:
			nz = a.i != 0
		case ir.Float:
			nz = a.f != 0
		default:
			nz = a.c != 0
		}
		return fromInt(b2i(!nz)), nil
	case ir.OpToInt:
		return fromInt(int64(math.Round(a.f))), nil
	case ir.OpToFloat:
		return fromFloat(a.f), nil
	case ir.OpToComplex:
		return fromComplex(a.c), nil
	}
	v, err := unLane(op, base, kBase, a.c)
	if err != nil {
		return vmval{}, err
	}
	return materialize(v, kBase), nil
}

// unLane computes a unary op on one lane value (as complex), matching
// the reference evaluator's semantics.
func unLane(op ir.Op, base ir.BaseKind, resBase ir.BaseKind, x complex128) (complex128, error) {
	xf := real(x)
	switch op {
	case ir.OpNeg:
		if base == ir.Complex {
			return -x, nil
		}
		return complex(-xf, 0), nil
	case ir.OpNot:
		var nz bool
		if base == ir.Complex {
			nz = x != 0
		} else {
			nz = xf != 0
		}
		return complex(bf(!nz), 0), nil
	case ir.OpSqrt:
		if base == ir.Complex || resBase == ir.Complex {
			return cmplx.Sqrt(x), nil
		}
		return complex(math.Sqrt(xf), 0), nil
	case ir.OpSin:
		if base == ir.Complex {
			return cmplx.Sin(x), nil
		}
		return complex(math.Sin(xf), 0), nil
	case ir.OpAsin:
		if base == ir.Complex {
			return cmplx.Asin(x), nil
		}
		return complex(math.Asin(xf), 0), nil
	case ir.OpAcos:
		if base == ir.Complex {
			return cmplx.Acos(x), nil
		}
		return complex(math.Acos(xf), 0), nil
	case ir.OpAtan:
		if base == ir.Complex {
			return cmplx.Atan(x), nil
		}
		return complex(math.Atan(xf), 0), nil
	case ir.OpSinh:
		if base == ir.Complex {
			return cmplx.Sinh(x), nil
		}
		return complex(math.Sinh(xf), 0), nil
	case ir.OpCosh:
		if base == ir.Complex {
			return cmplx.Cosh(x), nil
		}
		return complex(math.Cosh(xf), 0), nil
	case ir.OpTanh:
		if base == ir.Complex {
			return cmplx.Tanh(x), nil
		}
		return complex(math.Tanh(xf), 0), nil
	case ir.OpCos:
		if base == ir.Complex {
			return cmplx.Cos(x), nil
		}
		return complex(math.Cos(xf), 0), nil
	case ir.OpTan:
		if base == ir.Complex {
			return cmplx.Tan(x), nil
		}
		return complex(math.Tan(xf), 0), nil
	case ir.OpExp:
		if base == ir.Complex {
			return cmplx.Exp(x), nil
		}
		return complex(math.Exp(xf), 0), nil
	case ir.OpLog:
		if base == ir.Complex {
			return cmplx.Log(x), nil
		}
		return complex(math.Log(xf), 0), nil
	case ir.OpFloor:
		return complex(math.Floor(xf), 0), nil
	case ir.OpCeil:
		return complex(math.Ceil(xf), 0), nil
	case ir.OpRound:
		return complex(math.Round(xf), 0), nil
	case ir.OpTrunc:
		return complex(math.Trunc(xf), 0), nil
	case ir.OpAbs:
		if base == ir.Complex {
			return complex(cmplx.Abs(x), 0), nil
		}
		return complex(math.Abs(xf), 0), nil
	case ir.OpSign:
		switch {
		case xf > 0:
			return 1, nil
		case xf < 0:
			return -1, nil
		}
		return 0, nil
	case ir.OpRe:
		return complex(real(x), 0), nil
	case ir.OpIm:
		return complex(imag(x), 0), nil
	case ir.OpConj:
		return cmplx.Conj(x), nil
	case ir.OpAngle:
		return complex(cmplx.Phase(x), 0), nil
	case ir.OpToInt:
		return complex(math.Round(xf), 0), nil
	case ir.OpToFloat, ir.OpToComplex:
		return x, nil
	}
	return 0, fmt.Errorf("unsupported unary op %s", op)
}

// intrKind is the pre-decoded dispatch key of a custom instruction
// (the intrinsic family, vector and scalar forms collapsed).
type intrKind int8

const (
	intrUnknown intrKind = iota
	intrFMA
	intrFMS
	intrCMul
	intrCMac
	intrCConjMul
	intrCAdd
	intrCSub
	intrSAD
)

// intrKindOf maps an intrinsic name (with optional v- vector prefix) to
// its dispatch kind.
func intrKindOf(name string) intrKind {
	base := name
	if len(base) > 1 && base[0] == 'v' {
		base = base[1:]
	}
	switch base {
	case "fma":
		return intrFMA
	case "fms":
		return intrFMS
	case "cmul":
		return intrCMul
	case "cmac":
		return intrCMac
	case "cconjmul":
		return intrCConjMul
	case "cadd":
		return intrCAdd
	case "csub":
		return intrCSub
	case "sad":
		return intrSAD
	}
	return intrUnknown
}

// intrArity returns the operand count an intrinsic kind requires.
func intrArity(k intrKind) int {
	switch k {
	case intrFMA, intrFMS, intrCMac, intrSAD:
		return 3
	default:
		return 2
	}
}

// intrLane computes one lane of an intrinsic (two-operand kinds ignore
// a2). This is THE definition of every custom instruction's semantics,
// shared by the reference interpreter and every compiled-engine path,
// so the engines cannot drift.
func intrLane(k intrKind, a0, a1, a2 complex128) complex128 {
	switch k {
	case intrFMA:
		return complex(real(a0)+real(a1)*real(a2), 0)
	case intrFMS:
		return complex(real(a0)-real(a1)*real(a2), 0)
	case intrCMul:
		return a0 * a1
	case intrCMac:
		return a0 + a1*a2
	case intrCConjMul:
		return a0 * cmplx.Conj(a1)
	case intrCAdd:
		return a0 + a1
	case intrCSub:
		return a0 - a1
	case intrSAD:
		return complex(real(a0)+math.Abs(real(a1)-real(a2)), 0)
	}
	return 0
}

// intrFill computes dst's lanes for an intrinsic via intrLane.
func intrFill(k intrKind, dst []complex128, a0, a1, a2 vmval) {
	for j := range dst {
		dst[j] = intrLane(k, a0.lane(j), a1.lane(j), a2.lane(j))
	}
}

// execIntr executes a custom instruction, charging the cycles declared
// in the processor description (via its cost class when it has one).
func (m *Machine) execIntr(in *Instr, regs []vmval) (vmval, error) {
	if ci := m.Proc.Instr(in.Intr); ci != nil {
		m.Cycles += int64(m.Proc.IssueCost(ci))
		m.ClassCounts[in.Intr]++
	} else {
		// Executing an intrinsic the target does not declare indicates a
		// selection bug; fail loudly rather than mis-charge.
		return vmval{}, fmt.Errorf("intrinsic %q not provided by processor %s", in.Intr, m.Proc.Name)
	}
	kind := intrKindOf(in.Intr)
	if kind == intrUnknown {
		if in.Sem != "" {
			// A mined instruction: its behaviour is the pattern carried in
			// the instruction, not a member of the built-in family.
			return m.execPatternIntr(in, regs)
		}
		return vmval{}, fmt.Errorf("unknown intrinsic %q", in.Intr)
	}
	if len(in.Args) != intrArity(kind) {
		return vmval{}, fmt.Errorf("intrinsic %s expects %d args, got %d", in.Intr, intrArity(kind), len(in.Args))
	}
	L := in.K.Lanes
	var a0, a1, a2 vmval
	a0, a1 = regs[in.Args[0]], regs[in.Args[1]]
	if len(in.Args) > 2 {
		a2 = regs[in.Args[2]]
	}
	lanes := make([]complex128, L)
	intrFill(kind, lanes, a0, a1, a2)
	if L <= 1 {
		return materialize(lanes[0], in.K.Base), nil
	}
	return vmval{lanes: lanes}, nil
}

// execPatternIntr executes a mined instruction by evaluating its
// semantics pattern lane-wise (scalar operands broadcast, like every
// other vector op). The cost was already charged by execIntr.
func (m *Machine) execPatternIntr(in *Instr, regs []vmval) (vmval, error) {
	pat, err := ir.CachedPattern(in.Sem)
	if err != nil {
		return vmval{}, fmt.Errorf("intrinsic %q: bad semantics: %v", in.Intr, err)
	}
	if len(in.Args) != pat.Arity() {
		return vmval{}, fmt.Errorf("intrinsic %s expects %d args, got %d", in.Intr, pat.Arity(), len(in.Args))
	}
	var argbuf [ir.MaxPatternArity]complex128
	args := argbuf[:len(in.Args)]
	L := in.K.Lanes
	lanes := make([]complex128, L)
	for j := 0; j < L; j++ {
		for i, r := range in.Args {
			args[i] = regs[r].lane(j)
		}
		lanes[j] = pat.EvalLane(args)
	}
	if L <= 1 {
		return materialize(lanes[0], in.K.Base), nil
	}
	return vmval{lanes: lanes}, nil
}

// BinChargeClass reports the cost class the VM charges for a binary op
// at the given computation base and lane count. Exported for the
// instruction-set miner's savings estimator, which must price candidate
// subgraphs with exactly the classes the simulator charges.
func BinChargeClass(op ir.Op, opBase ir.BaseKind, lanes int) string {
	in := Instr{BOp: op, OpBase: opBase, K: ir.Kind{Base: opBase, Lanes: lanes}}
	return binClass(&in)
}

// UnChargeClass reports the cost class charged for a unary op at the
// given base and lane count, and how many issues of that class are
// charged (serialized vector transcendentals charge once per lane).
func UnChargeClass(op ir.Op, base ir.BaseKind, lanes int) (string, int64) {
	class := unClass(op, base)
	if lanes > 1 {
		switch op {
		case ir.OpSqrt, ir.OpSin, ir.OpCos, ir.OpTan, ir.OpExp, ir.OpLog,
			ir.OpAngle, ir.OpAsin, ir.OpAcos, ir.OpAtan, ir.OpSinh,
			ir.OpCosh, ir.OpTanh:
			return class, int64(lanes)
		case ir.OpAbs:
			if base == ir.Complex {
				return class, int64(lanes)
			}
		}
		return "vop", 1
	}
	return class, 1
}
