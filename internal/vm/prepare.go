package vm

import (
	"fmt"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// The pre-decoded instruction table.
//
// The reference interpreter charges every dynamic instruction through
// Processor.Cost (a string-keyed map lookup) and ClassCounts (a map
// increment), and allocates a fresh lane slice for every vector result.
// Decoding hoists all of that to program-load time: each instruction
// becomes a pInstr whose cycle cost, dense cost-class ID and class
// count are fully resolved against a pdesc.CostTable. The compiled
// engine (compile.go) translates this table into closures.
//
// Invariants the decode must hold:
//   - code[pc] describes prog.Instrs[pc]: the table is 1:1 with the
//     program, so fault pcs and per-pc profiles need no mapping.
//   - Charging pInstr.cost to cycles and pInstr.countN to
//     counts[pInstr.class] is exactly what the reference engine
//     charges for a successful execution of that instruction, except
//     OpAlloc's extent-dependent zero-fill, which is charged at run
//     time from zeroClass/zeroCost/allocW.
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
// interpreter recomputes per dynamic execution — cost class strings,
// map lookups, lane counts, fault-message array names — is resolved
// here once per (program, processor) pair.
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

	// Primary charge: cycles += cost; counts[class] += countN. A class
	// of -1 charges nothing (OpNop, intrinsics that fault before the
	// charge point).
	cost   int64
	class  int32
	countN int64

	// OpConst: the immediate, pre-materialized.
	val vmval

	// Memory ops: static array metadata for execution and faults.
	arrName string
	elem    ir.BaseKind

	// OpVLoad: stride and precomputed bounds-check offsets.
	stride       int
	loOff, hiOff int

	// OpAlloc: zero-fill charge (counts[zeroClass] += words,
	// cycles += zeroCost*words; words depends on the runtime extent).
	zeroClass int32
	zeroCost  int64
	allocW    int64

	// OpIntr: pre-decoded dispatch kind and precomputed fault messages.
	// intrFaultPre fires before the charge (instruction not provided by
	// the processor); intrFaultPost fires after it (unknown intrinsic or
	// arity mismatch) — matching the reference engine's charge ordering.
	// pat is the pre-parsed semantics pattern of a mined instruction
	// (nil for the built-in family).
	intr          intrKind
	intrFaultPre  string
	intrFaultPost string
	pat           *ir.Pattern
}

// scratch is the per-run execution arena: register file, array slots,
// cycle, block-run and dense class counters, and the shared lane
// buffer. Register r owns lanebuf[r*maxL : (r+1)*maxL]; a register's
// vmval.lanes is always nil or a prefix of its own segment, so vector
// writes never alias another register's storage.
type scratch struct {
	regs   []vmval
	arrays []*ir.Array
	// cycles is the run's charge so far. It lives here rather than in
	// exec so that OpAlloc's closure can add its extent-dependent
	// zero-fill directly.
	cycles  int64
	runs    []int64 // completions per compiled block
	counts  []int64
	touched []bool
	lanebuf []complex128
	maxL    int
}

// seg returns register reg's lane segment, sized to L lanes.
func (s *scratch) seg(reg, L int) []complex128 {
	base := reg * s.maxL
	return s.lanebuf[base : base+L : base+L]
}

// decode pre-decodes prog against proc's cost model, returning the
// instruction table, the cost table its dense class IDs index, and the
// widest lane count in the program (≥1). The processor must not be
// mutated afterwards (the usual read-only contract shared with
// pdesc.Resolve).
func decode(prog *Program, proc *pdesc.Processor) ([]pInstr, *pdesc.CostTable, int) {
	table := pdesc.NewCostTable(proc)
	id := func(name string) int32 {
		i, ok := table.ID(name)
		if !ok {
			// Unreachable: every class the VM charges is either in
			// pdesc's architectural table or an instruction name.
			panic("vm: cost class " + name + " missing from cost table")
		}
		return int32(i)
	}

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
		p.class = -1
		p.countN = 1
		if in.Arr >= 0 && in.Arr < len(prog.Arrays) {
			p.arrName = prog.Arrays[in.Arr].Name
			p.elem = prog.Arrays[in.Arr].Elem
		}

		// setClass resolves the primary charge to (class ID, cost·n, n).
		setClass := func(name string, n int64) {
			p.class = id(name)
			p.countN = n
			p.cost = table.Cost(int(p.class)) * n
		}

		switch in.Op {
		case OpNop:
			p.countN = 0

		case OpConst:
			switch in.K.Base {
			case ir.Int:
				p.val = fromInt(in.ImmI)
				setClass("imov", 1)
			case ir.Float:
				p.val = fromFloat(in.ImmF)
				setClass("fmov", 1)
			default:
				p.val = fromComplex(in.ImmC)
				setClass("cmov", 1)
			}

		case OpMov:
			setClass(movClass(in.K), 1)

		case OpConv:
			setClass("conv", 1)

		case OpBin:
			setClass(binClass(in), 1)
			if in.K.Lanes <= 1 {
				p.op = fuseBin(in.BOp, in.OpBase, in.K.Base)
			}

		case OpUn:
			class := unClass(in.BOp, in.OpBase)
			if in.K.Lanes > 1 {
				serial := false
				switch in.BOp {
				case ir.OpSqrt, ir.OpSin, ir.OpCos, ir.OpTan, ir.OpExp,
					ir.OpLog, ir.OpAngle, ir.OpAsin, ir.OpAcos, ir.OpAtan,
					ir.OpSinh, ir.OpCosh, ir.OpTanh:
					// No vector transcendental unit: serialize per lane.
					serial = true
				case ir.OpAbs:
					serial = in.OpBase == ir.Complex
				}
				if serial {
					setClass(class, int64(in.K.Lanes))
				} else {
					setClass("vop", 1)
				}
			} else {
				setClass(class, 1)
			}

		case OpIntr:
			ci := proc.Instr(in.Intr)
			if ci == nil {
				// Faults at runtime before any charge, like the
				// reference engine.
				p.intrFaultPre = fmt.Sprintf("intrinsic %q not provided by processor %s", in.Intr, proc.Name)
				break
			}
			// The issue cost comes from the instruction declaration, not
			// the architectural table (the name may shadow a class).
			p.class = id(in.Intr)
			p.cost = int64(proc.IssueCost(ci))
			p.intr = intrKindOf(in.Intr)
			if p.intr == intrUnknown {
				if in.Sem != "" {
					// Mined instruction: pre-parse the semantics pattern
					// once; execution evaluates it lane-wise.
					pat, err := ir.CachedPattern(in.Sem)
					switch {
					case err != nil:
						p.intrFaultPost = fmt.Sprintf("intrinsic %q: bad semantics: %v", in.Intr, err)
					case len(in.Args) != pat.Arity():
						p.intrFaultPost = fmt.Sprintf("intrinsic %s expects %d args, got %d", in.Intr, pat.Arity(), len(in.Args))
					default:
						p.pat = pat
					}
				} else {
					p.intrFaultPost = fmt.Sprintf("unknown intrinsic %q", in.Intr)
				}
			} else if len(in.Args) != intrArity(p.intr) {
				p.intrFaultPost = fmt.Sprintf("intrinsic %s expects %d args, got %d", in.Intr, intrArity(p.intr), len(in.Args))
			} else if in.K.Lanes == 1 {
				p.op = xIntrS
			}

		case OpLoad:
			if p.elem == ir.Complex {
				setClass("cload", 1)
			} else {
				setClass("load", 1)
			}

		case OpVLoad:
			stride := int(in.ImmI)
			if stride == 0 {
				stride = 1
			}
			p.stride = stride
			L := in.K.Lanes
			p.loOff, p.hiOff = 0, (L-1)*stride
			if stride < 0 {
				p.loOff, p.hiOff = p.hiOff, p.loOff
			}
			if stride == 1 {
				setClass("vload", 1)
				break
			}
			// Strided load: the custom instruction when declared, else
			// its serialized scalar expansion.
			name, scalarClass := "vlds", "load"
			if p.elem == ir.Complex {
				name, scalarClass = "vclds", "cload"
			}
			if ci := proc.Instr(name); ci != nil {
				p.class = id(name)
				p.cost = int64(proc.IssueCost(ci))
			} else {
				setClass(scalarClass, int64(L))
			}

		case OpStore:
			if in.K.Lanes > 1 {
				setClass("vstore", 1)
			} else if p.elem == ir.Complex {
				setClass("cstore", 1)
			} else {
				setClass("store", 1)
			}

		case OpAlloc:
			setClass("alloc", 1)
			w := int64(proc.SIMDWidth)
			if w < 1 {
				w = 1
			}
			p.allocW = w
			p.zeroClass = id("vstore")
			p.zeroCost = table.Cost(int(p.zeroClass))

		case OpDim:
			setClass("imov", 1)

		case OpSel:
			if in.K.Lanes <= 1 {
				setClass("fcmp", 1)
			} else {
				setClass("vop", 1)
			}

		case OpSplat, OpRamp:
			setClass("vsplat", 1)

		case OpReduce:
			setClass("vreduce", 1)

		case OpJmp:
			setClass("jump", 1)

		case OpJz:
			setClass("branch", 1)

		case OpRet:
			setClass("ret", 1)
		}
	}
	return code, table, maxL
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
