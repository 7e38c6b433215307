// Package vm implements the ASIP cycle-model virtual machine that
// substitutes for the paper's hardware target.
//
// The compiler lowers its IR to a linear instruction stream (this
// package's Program) and the Machine executes it while charging each
// instruction a cycle cost drawn from the processor description — the
// same description that drove vectorization and instruction selection.
// Custom instructions execute as single (cheap) operations; complex
// arithmetic *without* ISA support is charged its real-arithmetic
// expansion, and vector operations are charged as single vector-unit
// issues. Absolute numbers are a model, not the authors' silicon; the
// relative cost of baseline vs. optimized code — which is what the
// paper's speedup table reports — is what the model preserves.
//
// The VM's observable semantics (values, faults) intentionally mirror
// the ir package's reference evaluator; the test suite runs both on the
// same kernels and inputs and requires identical results.
package vm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync/atomic"

	"mat2c/internal/ir"
)

// Opc is a VM opcode.
type Opc int

// VM opcodes.
const (
	OpNop    Opc = iota
	OpConst      // Dst = Imm (kind K)
	OpMov        // Dst = A
	OpConv       // Dst = conv<K>(A)
	OpBin        // Dst = A <BOp> B, computed at base OpBase
	OpUn         // Dst = <BOp> A
	OpIntr       // Dst = Intr(args...)
	OpLoad       // Dst = Arr[A]  (scalar element)
	OpVLoad      // Dst = Arr[A .. A+K.Lanes-1]
	OpStore      // Arr[A] = B (vector B stores K.Lanes elements)
	OpAlloc      // alloc Arr with rows=A, cols=B (zero-filled)
	OpDim        // Dst = dim<ImmI>(Arr): 0 rows, 1 cols, 2 len
	OpSel        // Dst = Args[0] (mask) ? Args[1] : Args[2], lane-wise
	OpSplat      // Dst = broadcast(A) to K.Lanes
	OpRamp       // Dst = {A, A+step, ...} (step in ImmI)
	OpReduce     // Dst = horizontal <BOp> over lanes of A
	OpJmp        // pc = Off
	OpJz         // if A == 0: pc = Off
	OpRet        // return
)

var opcNames = map[Opc]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov", OpConv: "conv",
	OpBin: "bin", OpUn: "un", OpIntr: "intr", OpLoad: "load",
	OpVLoad: "vload", OpStore: "store", OpAlloc: "alloc", OpDim: "dim",
	OpSplat: "splat", OpRamp: "ramp", OpReduce: "reduce", OpSel: "sel",
	OpJmp: "jmp", OpJz: "jz", OpRet: "ret",
}

// String returns the opcode mnemonic.
func (o Opc) String() string {
	if s, ok := opcNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Opc(%d)", int(o))
}

// Instr is one VM instruction. Register and array operands are indices
// into the program's virtual register file and array slot table.
type Instr struct {
	Op     Opc
	K      ir.Kind     // result kind
	OpBase ir.BaseKind // computation base for OpBin/OpReduce
	BOp    ir.Op       // IR operation for OpBin/OpUn/OpReduce

	Dst  int
	A, B int
	Args []int // OpIntr arguments

	ImmI int64
	ImmF float64
	ImmC complex128

	Arr  int    // array slot for memory ops
	Off  int    // branch target
	Intr string // intrinsic name for OpIntr
	Sem  string // pattern semantics for mined OpIntr (empty for built-ins)
}

// ArraySlot describes one array variable of the program.
type ArraySlot struct {
	Name string
	Elem ir.BaseKind
}

// Param describes one function parameter.
type Param struct {
	Name    string
	IsArray bool
	Elem    ir.BaseKind
	Reg     int // scalar register, or
	Arr     int // array slot
}

// Program is a compiled function in VM form. A Program is immutable
// once lowering returns it and is never copied: it carries its content
// hash and its compiled translation, each set once, and go vet's
// copylocks check rejects a value copy. Mutating a Program
// after execution started (or after ContentHash was taken) is a caller
// bug.
type Program struct {
	Name    string
	Instrs  []Instr
	NumRegs int
	Arrays  []ArraySlot
	Params  []Param
	Results []Param

	// hash and compiled are set once, first store wins: concurrent
	// first callers may compute redundantly, and every caller sees the
	// stored value. Both work on a zero-value Program literal.
	hash     atomic.Pointer[string]
	compiled atomic.Pointer[CompiledProgram]
}

// Len returns the static instruction count (the code-size metric).
func (p *Program) Len() int { return len(p.Instrs) }

// ContentHash returns a hex SHA-256 digest over everything observable
// about the program (instructions, register/array/param layout, name).
// Two programs with equal hashes execute identically, including fault
// messages. Computed once per Program and carried on it.
func (p *Program) ContentHash() string {
	if h := p.hash.Load(); h != nil {
		return *h
	}
	s := p.contentHash()
	p.hash.CompareAndSwap(nil, &s)
	return *p.hash.Load()
}

// contentHash is the uncached digest computation. It appends every
// field to one buffer and hashes it once: SHA-256 does not depend on
// how its input is chunked, and one Sum256 over the whole buffer is
// about twice as fast as a Write per 8-byte field.
func (p *Program) contentHash() string {
	buf := make([]byte, 0, 64+len(p.Instrs)*160)
	wi := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	ws := func(s string) {
		wi(int64(len(s)))
		buf = append(buf, s...)
	}
	ws(p.Name)
	wi(int64(p.NumRegs))
	wi(int64(len(p.Arrays)))
	for _, a := range p.Arrays {
		ws(a.Name)
		wi(int64(a.Elem))
	}
	wp := func(ps []Param) {
		wi(int64(len(ps)))
		for _, q := range ps {
			ws(q.Name)
			wi(int64(b2int(q.IsArray)))
			wi(int64(q.Elem))
			wi(int64(q.Reg))
			wi(int64(q.Arr))
		}
	}
	wp(p.Params)
	wp(p.Results)
	wi(int64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		wi(int64(in.Op))
		wi(int64(in.K.Base))
		wi(int64(in.K.Lanes))
		wi(int64(in.OpBase))
		wi(int64(in.BOp))
		wi(int64(in.Dst))
		wi(int64(in.A))
		wi(int64(in.B))
		wi(int64(len(in.Args)))
		for _, a := range in.Args {
			wi(int64(a))
		}
		wi(in.ImmI)
		wi(int64(math.Float64bits(in.ImmF)))
		wi(int64(math.Float64bits(real(in.ImmC))))
		wi(int64(math.Float64bits(imag(in.ImmC))))
		wi(int64(in.Arr))
		wi(int64(in.Off))
		ws(in.Intr)
		ws(in.Sem)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

func b2int(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Validate checks structural well-formedness: register and array
// operands in range and branch targets within the program. Lower always
// produces valid programs; Validate guards hand-built or mutated ones.
func (p *Program) Validate() error {
	reg := func(r int) error {
		if r < 0 || r >= p.NumRegs {
			return fmt.Errorf("register r%d out of range (have %d)", r, p.NumRegs)
		}
		return nil
	}
	arr := func(a int) error {
		if a < 0 || a >= len(p.Arrays) {
			return fmt.Errorf("array slot %d out of range (have %d)", a, len(p.Arrays))
		}
		return nil
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		check := func(err error) error {
			if err != nil {
				return fmt.Errorf("instr %d (%s): %w", i, in.Op, err)
			}
			return nil
		}
		switch in.Op {
		case OpNop, OpRet:
		case OpConst:
			if err := check(reg(in.Dst)); err != nil {
				return err
			}
		case OpMov, OpConv, OpUn, OpSplat, OpRamp, OpReduce:
			if err := check(reg(in.Dst)); err != nil {
				return err
			}
			if err := check(reg(in.A)); err != nil {
				return err
			}
		case OpBin:
			for _, r := range []int{in.Dst, in.A, in.B} {
				if err := check(reg(r)); err != nil {
					return err
				}
			}
		case OpIntr, OpSel:
			if err := check(reg(in.Dst)); err != nil {
				return err
			}
			for _, r := range in.Args {
				if err := check(reg(r)); err != nil {
					return err
				}
			}
		case OpLoad, OpVLoad:
			if err := check(reg(in.Dst)); err != nil {
				return err
			}
			if err := check(reg(in.A)); err != nil {
				return err
			}
			if err := check(arr(in.Arr)); err != nil {
				return err
			}
		case OpStore:
			if err := check(reg(in.A)); err != nil {
				return err
			}
			if err := check(reg(in.B)); err != nil {
				return err
			}
			if err := check(arr(in.Arr)); err != nil {
				return err
			}
		case OpAlloc:
			if err := check(reg(in.A)); err != nil {
				return err
			}
			if err := check(reg(in.B)); err != nil {
				return err
			}
			if err := check(arr(in.Arr)); err != nil {
				return err
			}
		case OpDim:
			if err := check(reg(in.Dst)); err != nil {
				return err
			}
			if err := check(arr(in.Arr)); err != nil {
				return err
			}
		case OpJmp:
			if in.Off < 0 || in.Off > len(p.Instrs) {
				return fmt.Errorf("instr %d: jump target %d out of range", i, in.Off)
			}
		case OpJz:
			if err := check(reg(in.A)); err != nil {
				return err
			}
			if in.Off < 0 || in.Off > len(p.Instrs) {
				return fmt.Errorf("instr %d: branch target %d out of range", i, in.Off)
			}
		default:
			return fmt.Errorf("instr %d: unknown opcode %d", i, int(in.Op))
		}
	}
	return nil
}

// Disasm renders the program as assembly-like text.
func (p *Program) Disasm() string {
	out := fmt.Sprintf("; program %s: %d instrs, %d regs, %d arrays\n",
		p.Name, len(p.Instrs), p.NumRegs, len(p.Arrays))
	for i, in := range p.Instrs {
		out += fmt.Sprintf("%4d: %s\n", i, disasmInstr(p, in))
	}
	return out
}

func disasmInstr(p *Program, in Instr) string {
	arr := func() string {
		if in.Arr >= 0 && in.Arr < len(p.Arrays) {
			return p.Arrays[in.Arr].Name
		}
		return fmt.Sprintf("arr%d", in.Arr)
	}
	switch in.Op {
	case OpConst:
		switch in.K.Base {
		case ir.Int:
			return fmt.Sprintf("const r%d, %d", in.Dst, in.ImmI)
		case ir.Float:
			return fmt.Sprintf("const r%d, %g", in.Dst, in.ImmF)
		default:
			return fmt.Sprintf("const r%d, %v", in.Dst, in.ImmC)
		}
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d", in.Dst, in.A)
	case OpConv:
		return fmt.Sprintf("conv.%s r%d, r%d", in.K, in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("%s.%s r%d, r%d, r%d", in.BOp, in.K, in.Dst, in.A, in.B)
	case OpUn:
		return fmt.Sprintf("%s.%s r%d, r%d", in.BOp, in.K, in.Dst, in.A)
	case OpIntr:
		return fmt.Sprintf("%s.%s r%d, %v", in.Intr, in.K, in.Dst, in.Args)
	case OpSel:
		return fmt.Sprintf("sel.%s r%d, %v", in.K, in.Dst, in.Args)
	case OpLoad:
		return fmt.Sprintf("load.%s r%d, %s[r%d]", in.K, in.Dst, arr(), in.A)
	case OpVLoad:
		return fmt.Sprintf("vload.%s r%d, %s[r%d]", in.K, in.Dst, arr(), in.A)
	case OpStore:
		return fmt.Sprintf("store.%s %s[r%d], r%d", in.K, arr(), in.A, in.B)
	case OpAlloc:
		return fmt.Sprintf("alloc %s, r%d, r%d", arr(), in.A, in.B)
	case OpDim:
		return fmt.Sprintf("dim%d r%d, %s", in.ImmI, in.Dst, arr())
	case OpSplat:
		return fmt.Sprintf("splat.%s r%d, r%d", in.K, in.Dst, in.A)
	case OpRamp:
		return fmt.Sprintf("ramp.%s r%d, r%d, %d", in.K, in.Dst, in.A, in.ImmI)
	case OpReduce:
		return fmt.Sprintf("reduce_%s.%s r%d, r%d", in.BOp, in.K, in.Dst, in.A)
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.Off)
	case OpJz:
		return fmt.Sprintf("jz r%d, %d", in.A, in.Off)
	case OpRet:
		return "ret"
	}
	return in.Op.String()
}
