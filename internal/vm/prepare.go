package vm

import (
	"fmt"

	"mat2c/internal/ir"
)

// The pre-decoded instruction table.
//
// The reference interpreter charges every dynamic instruction through
// Processor.Cost (a string-keyed map lookup) and ClassCounts (a map
// increment), and allocates a fresh lane slice for every vector result.
// Decoding hoists all of that to program-load time: each instruction
// becomes a pInstr with its operands and static metadata resolved,
// independent of any processor. Charges are not decoded: the layout
// (price.go) gives each pc a charge symbol, and a run resolves the
// program's few distinct symbols on its processor. The compiled engine
// (compile.go) translates this table into closures.
//
// Invariants the decode must hold:
//   - code[pc] and layout.symOf[pc] describe prog.Instrs[pc]: both are
//     1:1 with the program, so fault pcs and per-pc profiles need no
//     mapping.
//   - Charging the resolved symbol of pc is exactly what the reference
//     engine charges for a successful execution of that instruction,
//     except OpAlloc's extent-dependent zero-fill, which is charged at
//     run time from the run's zeroFill.
//   - Operand semantics come from ops.go, shared with the reference
//     engine, so results are bit-identical.

// Fused micro-opcodes: scalar binary operations and scalar intrinsics
// whose (operation, computation base, result base) triple is fully
// known at decode time collapse into dedicated opcodes, which the
// translator turns into one direct arithmetic expression. Each fused
// case must compute exactly what its generic counterpart computes; the
// differential tests enforce it bit for bit.
const (
	xIAdd Opc = 0x100 + iota
	xISub
	xIMul
	xILt
	xILe
	xIGt
	xIGe
	xIEq
	xINe
	xIAnd
	xIOr
	xFAdd // float compute, float result
	xFSub
	xFMul
	xFDiv
	xFLt // float compare, float result
	xFLe
	xFGt
	xFGe
	xFEq
	xFNe
	xFLtI // float compare, int result
	xFLeI
	xFGtI
	xFGeI
	xFEqI
	xFNeI
	xCAdd // complex compute, complex result
	xCSub
	xCMul
	xIntrS // scalar intrinsic with statically valid decode
)

// fuseBin maps a scalar OpBin triple to its fused opcode, or OpBin when
// no fused form applies (the generic path remains authoritative).
func fuseBin(op ir.Op, opBase, kBase ir.BaseKind) Opc {
	switch opBase {
	case ir.Int:
		// binScalarVal's Int case ignores kBase: always fromInt.
		switch op {
		case ir.OpAdd:
			return xIAdd
		case ir.OpSub:
			return xISub
		case ir.OpMul:
			return xIMul
		case ir.OpLt:
			return xILt
		case ir.OpLe:
			return xILe
		case ir.OpGt:
			return xIGt
		case ir.OpGe:
			return xIGe
		case ir.OpEq:
			return xIEq
		case ir.OpNe:
			return xINe
		case ir.OpAnd:
			return xIAnd
		case ir.OpOr:
			return xIOr
		}
	case ir.Float:
		switch kBase {
		case ir.Float:
			switch op {
			case ir.OpAdd:
				return xFAdd
			case ir.OpSub:
				return xFSub
			case ir.OpMul:
				return xFMul
			case ir.OpDiv:
				return xFDiv
			case ir.OpLt:
				return xFLt
			case ir.OpLe:
				return xFLe
			case ir.OpGt:
				return xFGt
			case ir.OpGe:
				return xFGe
			case ir.OpEq:
				return xFEq
			case ir.OpNe:
				return xFNe
			}
		case ir.Int:
			switch op {
			case ir.OpLt:
				return xFLtI
			case ir.OpLe:
				return xFLeI
			case ir.OpGt:
				return xFGtI
			case ir.OpGe:
				return xFGeI
			case ir.OpEq:
				return xFEqI
			case ir.OpNe:
				return xFNeI
			}
		}
	case ir.Complex:
		if kBase == ir.Complex {
			switch op {
			case ir.OpAdd:
				return xCAdd
			case ir.OpSub:
				return xCSub
			case ir.OpMul:
				return xCMul
			}
		}
	}
	return OpBin
}

// lane0 reads lane 0 of a register without copying the vmval (scalars
// broadcast), mirroring vmval.lane(0).
func lane0(regs []vmval, r int) complex128 {
	v := &regs[r]
	if v.lanes == nil {
		return v.c
	}
	return v.lanes[0]
}

// pInstr is one pre-decoded instruction. Everything that the reference
// interpreter recomputes per dynamic execution — lane counts, strides,
// fault-message array names — is resolved here once per program; its
// charge is its layout symbol (price.go).
type pInstr struct {
	op     Opc
	bop    ir.Op
	opBase ir.BaseKind
	kBase  ir.BaseKind
	lanes  int

	dst, a, b int
	args      []int
	immI      int64
	arr       int
	off       int

	// OpConst: the immediate, pre-materialized.
	val vmval

	// Memory ops: static array metadata for execution and faults.
	arrName string
	elem    ir.BaseKind

	// OpVLoad: stride and precomputed bounds-check offsets.
	stride       int
	loOff, hiOff int

	// OpIntr: pre-decoded dispatch kind and the precomputed fault of an
	// intrinsic that is unknown or has the wrong arity, which fires
	// after its charge on a processor providing it. A processor lacking
	// the intrinsic never reaches the closure: its block is handed to
	// the reference interpreter (its symbol resolves as missing). pat is
	// the pre-parsed semantics pattern of a mined instruction (nil for
	// the built-in family).
	intr      intrKind
	intrFault string
	pat       *ir.Pattern
}

// scratch is the per-run execution arena: register file, array slots,
// the run's resolved charges, cycle, block-run, symbol-execution and
// alloc-extent counters, and the shared lane buffer. Register r owns lanebuf[r*maxL : (r+1)*maxL]; a
// register's vmval.lanes is always nil or a prefix of its own segment,
// so vector writes never alias another register's storage.
type scratch struct {
	regs   []vmval
	arrays []*ir.Array
	// cycles is the run's charge so far. It lives here rather than in
	// exec so that OpAlloc's closure can add its extent-dependent
	// zero-fill, priced by zero, directly.
	cycles    int64
	zero      zeroFill
	charges   []charge        // per layout symbol, on the run's processor
	block     []int64         // per compiled block: its cost, -1 to hand off
	runs      []int64         // completions per compiled block
	symCounts []int64         // executions per symbol: fault replay, then run's tally
	allocs    map[int64]int64 // elements -> executed allocs of that many
	lanebuf   []complex128
	maxL      int
}

// seg returns register reg's lane segment, sized to L lanes.
func (s *scratch) seg(reg, L int) []complex128 {
	base := reg * s.maxL
	return s.lanebuf[base : base+L : base+L]
}

// decode pre-decodes prog, returning the instruction table and the
// widest lane count in the program (≥1).
func decode(prog *Program) ([]pInstr, int) {
	maxL := 1
	for i := range prog.Instrs {
		if L := prog.Instrs[i].K.Lanes; L > maxL {
			maxL = L
		}
	}

	code := make([]pInstr, len(prog.Instrs))
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		p := &code[i]
		p.op = in.Op
		p.bop = in.BOp
		p.opBase = in.OpBase
		p.kBase = in.K.Base
		p.lanes = in.K.Lanes
		p.dst, p.a, p.b = in.Dst, in.A, in.B
		p.args = in.Args
		p.immI = in.ImmI
		p.arr = in.Arr
		p.off = in.Off
		if in.Arr >= 0 && in.Arr < len(prog.Arrays) {
			p.arrName = prog.Arrays[in.Arr].Name
			p.elem = prog.Arrays[in.Arr].Elem
		}

		switch in.Op {
		case OpConst:
			switch in.K.Base {
			case ir.Int:
				p.val = fromInt(in.ImmI)
			case ir.Float:
				p.val = fromFloat(in.ImmF)
			default:
				p.val = fromComplex(in.ImmC)
			}

		case OpBin:
			if in.K.Lanes <= 1 {
				p.op = fuseBin(in.BOp, in.OpBase, in.K.Base)
			}

		case OpIntr:
			p.intr = intrKindOf(in.Intr)
			if p.intr == intrUnknown {
				if in.Sem != "" {
					// Mined instruction: pre-parse the semantics pattern
					// once; execution evaluates it lane-wise.
					pat, err := ir.CachedPattern(in.Sem)
					switch {
					case err != nil:
						p.intrFault = fmt.Sprintf("intrinsic %q: bad semantics: %v", in.Intr, err)
					case len(in.Args) != pat.Arity():
						p.intrFault = fmt.Sprintf("intrinsic %s expects %d args, got %d", in.Intr, pat.Arity(), len(in.Args))
					default:
						p.pat = pat
					}
				} else {
					p.intrFault = fmt.Sprintf("unknown intrinsic %q", in.Intr)
				}
			} else if len(in.Args) != intrArity(p.intr) {
				p.intrFault = fmt.Sprintf("intrinsic %s expects %d args, got %d", in.Intr, intrArity(p.intr), len(in.Args))
			} else if in.K.Lanes == 1 {
				p.op = xIntrS
			}

		case OpVLoad:
			stride := int(in.ImmI)
			if stride == 0 {
				stride = 1
			}
			p.stride = stride
			p.loOff, p.hiOff = 0, (in.K.Lanes-1)*stride
			if stride < 0 {
				p.loOff, p.hiOff = p.hiOff, p.loOff
			}
		}
	}
	return code, maxL
}

// zeroVmval backs the absent third operand of two-argument intrinsics
// in in-place operand reads. Never written.
var zeroVmval vmval

// laneOf is vmval.lane without copying the vmval (scalars broadcast).
func laneOf(v *vmval, j int) complex128 {
	if v.lanes == nil {
		return v.c
	}
	return v.lanes[j]
}

// isZeroP is isZero without copying the vmval.
func isZeroP(v *vmval) bool {
	if v.lanes != nil {
		return v.lanes[0] == 0
	}
	return v.i == 0 && v.f == 0 && v.c == 0
}

// setInt / setFloat / setComplex store a scalar result in place with
// the write-through conventions of fromInt / fromFloat / fromComplex.
// Building a vmval literal and assigning it moves 40 bytes through the
// stack per op; these compile to four direct stores.
func setInt(d *vmval, v int64) {
	d.i, d.f, d.c, d.lanes = v, float64(v), complex(float64(v), 0), nil
}

func setFloat(d *vmval, v float64) {
	d.i, d.f, d.c, d.lanes = int64(v), v, complex(v, 0), nil
}

func setComplex(d *vmval, v complex128) {
	d.i, d.f, d.c, d.lanes = int64(real(v)), real(v), v, nil
}

// setMaterialize is materialize without the intermediate vmval.
func setMaterialize(d *vmval, v complex128, base ir.BaseKind) {
	switch base {
	case ir.Int:
		setInt(d, int64(real(v)))
	case ir.Float:
		setFloat(d, real(v))
	default:
		setComplex(d, v)
	}
}

// binScalarInto is binScalarVal with pointer operands and an in-place
// result store. Every operand field is read before d is written, so
// d aliasing a or b computes exactly what the copying form computes.
func binScalarInto(d *vmval, op ir.Op, opBase, kBase ir.BaseKind, a, b *vmval) error {
	switch opBase {
	case ir.Int:
		r, err := binInt(op, a.i, b.i)
		if err != nil {
			return err
		}
		setInt(d, r)
	case ir.Float:
		r := binFloat(op, a.f, b.f)
		if kBase == ir.Int {
			setInt(d, int64(r))
		} else {
			setFloat(d, r)
		}
	default:
		r, err := binComplex(op, a.c, b.c)
		if err != nil {
			return err
		}
		if kBase == ir.Int {
			setInt(d, int64(real(r)))
		} else {
			setComplex(d, r)
		}
	}
	return nil
}
