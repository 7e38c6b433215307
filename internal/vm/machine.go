package vm

import (
	"context"
	"fmt"
	"io"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// FaultError is a VM runtime fault.
type FaultError struct {
	PC  int
	Msg string
}

func (e *FaultError) Error() string { return fmt.Sprintf("vm fault at pc=%d: %s", e.PC, e.Msg) }

// CancelCheckStride is the number of executed instructions between
// context polls in both execution engines: a cancelled RunContext is
// observed within at most this many simulated instructions. The poll
// charges nothing, so cycle accounting is identical with and without a
// cancellable context.
const CancelCheckStride = 4096

// CancelledError reports that a simulation stopped early because its
// context was cancelled (deadline or explicit cancel). It unwraps to
// the context's error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work. Machine counters
// (Cycles, Executed, ClassCounts) hold the partial run's state.
type CancelledError struct {
	// Executed is the dynamic instruction count at the poll that
	// observed the cancellation.
	Executed int64
	// Err is the context's error.
	Err error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("vm: run cancelled after %d instructions: %v", e.Executed, e.Err)
}

func (e *CancelledError) Unwrap() error { return e.Err }

// vmval is a register value. Scalar values are written through to all
// three fields (with the same conversion conventions as the reference
// evaluator); vector values live in lanes.
type vmval struct {
	i     int64
	f     float64
	c     complex128
	lanes []complex128 // nil for scalars
}

func scalarOf(i int64, f float64, c complex128) vmval {
	return vmval{i: i, f: f, c: c}
}

func fromInt(v int64) vmval     { return scalarOf(v, float64(v), complex(float64(v), 0)) }
func fromFloat(v float64) vmval { return scalarOf(int64(v), v, complex(v, 0)) }
func fromComplex(v complex128) vmval {
	return scalarOf(int64(real(v)), real(v), v)
}

// lane returns lane j as a complex128 (scalars broadcast).
func (v vmval) lane(j int) complex128 {
	if v.lanes == nil {
		return v.c
	}
	return v.lanes[j]
}

// DefaultMaxCycles bounds execution when Machine.MaxCycles is zero.
const DefaultMaxCycles = 50_000_000_000

// Execution engine names accepted by Machine.Engine.
const (
	// EngineCompiled is the default engine: each basic block of the
	// pre-decoded program is translated into a chain of typed Go
	// closures with batched cycle/class accounting (compile.go).
	EngineCompiled = "compiled"
	// EngineReference is the switch-dispatch interpreter over the
	// undecoded Program, retained as the semantic oracle for
	// differential testing and used for tracing.
	EngineReference = "reference"
)

// Machine executes VM programs charging per-instruction cycle costs from
// a processor description.
type Machine struct {
	Proc *pdesc.Processor
	// MaxCycles bounds execution (0 = DefaultMaxCycles). The limit is
	// checked before each instruction: a run faults when an instruction
	// is due while Cycles exceeds MaxCycles, so a run whose last
	// instruction crosses the limit completes, with Cycles above it and
	// no fault. Run never modifies it.
	MaxCycles int64
	// Trace, when non-nil, receives one line per executed instruction
	// (pc, disassembly, cycle counter) — a debugging aid; it can produce
	// very large output. Tracing always runs on the reference engine.
	Trace io.Writer
	// Engine selects the execution engine: EngineReference runs the
	// oracle interpreter; anything else (normally empty) runs the
	// compiled engine. The engines are cycle-exact against each other:
	// Cycles, Executed, ClassCounts, PCCounts, outputs, and faults
	// (pc and text) are identical.
	Engine string
	// Profile, when true, records per-pc dynamic execution counts into
	// PCCounts. Counts always refer to the Program's instructions and
	// are identical on both engines; cycle accounting is unchanged. The
	// instruction-set miner uses these counts to weight candidate
	// patterns by how often their sites actually ran.
	Profile bool

	// PCCounts[pc] is the number of times prog.Instrs[pc] executed in
	// the last profiled Run (nil unless Profile is set).
	PCCounts []int64
	// Cycles is the total charged cost of the last Run.
	Cycles int64
	// Executed is the dynamic instruction count of the last Run.
	Executed int64
	// ClassCounts tallies executed instructions per cost class. The map
	// is reused (cleared, not reallocated) across runs of one Machine.
	ClassCounts map[string]int64
}

// NewMachine returns a machine for the given processor.
func NewMachine(p *pdesc.Processor) *Machine {
	return &Machine{Proc: p}
}

func (m *Machine) charge(class string) {
	m.Cycles += int64(m.Proc.Cost(class))
	m.ClassCounts[class]++
}

func (m *Machine) chargeN(class string, n int64) {
	m.Cycles += int64(m.Proc.Cost(class)) * n
	m.ClassCounts[class] += n
}

// Run executes prog with the given arguments (int64, float64,
// complex128, or *ir.Array matching each parameter) and returns results
// in declaration order. Cycles/Executed/ClassCounts are reset per run.
func (m *Machine) Run(prog *Program, args ...interface{}) ([]interface{}, error) {
	return m.RunContext(context.Background(), prog, args...)
}

// RunContext executes like Run under a cancellable context: both
// engines poll ctx every CancelCheckStride executed instructions and
// return a *CancelledError once it fires, leaving the partial
// Cycles/Executed/ClassCounts on the machine. The poll never charges
// cycles, so a run that completes is accounted identically to Run. A
// context that cannot be cancelled (Background, TODO) is never polled.
func (m *Machine) RunContext(ctx context.Context, prog *Program, args ...interface{}) ([]interface{}, error) {
	return m.runContext(ctx, prog, args, nil)
}

// runContext is RunContext; a non-nil ev receives the run's events when
// the compiled engine completes it (see RunEvents).
func (m *Machine) runContext(ctx context.Context, prog *Program, args []interface{}, ev **Events) ([]interface{}, error) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // no cancellation source: skip polling entirely
	}
	m.reset(prog)
	if m.Trace == nil && m.Engine != EngineReference {
		return CompiledFor(prog).run(m, ctx, m.maxCycles(), args, ev)
	}

	regs := make([]vmval, prog.NumRegs)
	arrays := make([]*ir.Array, len(prog.Arrays))
	if err := bindArgs(prog, args, regs, arrays); err != nil {
		return nil, err
	}
	if err := m.exec(ctx, prog, 0, regs, arrays, m.maxCycles()); err != nil {
		return nil, err
	}
	return collectResults(prog, regs, arrays)
}

// maxCycles is the effective cycle limit.
func (m *Machine) maxCycles() int64 {
	if m.MaxCycles == 0 {
		return DefaultMaxCycles
	}
	return m.MaxCycles
}

// reset zeroes the per-run accounting ahead of a run (or a price) of
// prog.
func (m *Machine) reset(prog *Program) {
	m.Cycles = 0
	m.Executed = 0
	if m.ClassCounts == nil {
		m.ClassCounts = make(map[string]int64, 16)
	} else {
		clear(m.ClassCounts)
	}

	if m.Profile {
		if cap(m.PCCounts) >= len(prog.Instrs) {
			m.PCCounts = m.PCCounts[:len(prog.Instrs)]
			clear(m.PCCounts)
		} else {
			m.PCCounts = make([]int64, len(prog.Instrs))
		}
	} else {
		m.PCCounts = nil
	}
}

// bindArgs marshals caller arguments into the register file and array
// slot table (shared by both engines; regs/arrays must be zeroed).
func bindArgs(prog *Program, args []interface{}, regs []vmval, arrays []*ir.Array) error {
	if len(args) != len(prog.Params) {
		return fmt.Errorf("%s expects %d arguments, got %d", prog.Name, len(prog.Params), len(args))
	}
	for i, p := range prog.Params {
		switch a := args[i].(type) {
		case int64:
			if p.IsArray {
				return fmt.Errorf("argument %d: scalar passed for array parameter %s", i, p.Name)
			}
			switch p.Elem {
			case ir.Int:
				regs[p.Reg] = fromInt(a)
			case ir.Float:
				regs[p.Reg] = fromFloat(float64(a))
			default:
				regs[p.Reg] = fromComplex(complex(float64(a), 0))
			}
		case float64:
			if p.IsArray {
				return fmt.Errorf("argument %d: scalar passed for array parameter %s", i, p.Name)
			}
			switch p.Elem {
			case ir.Int:
				regs[p.Reg] = fromInt(int64(a))
			case ir.Float:
				regs[p.Reg] = fromFloat(a)
			default:
				regs[p.Reg] = fromComplex(complex(a, 0))
			}
		case complex128:
			if p.IsArray {
				return fmt.Errorf("argument %d: scalar passed for array parameter %s", i, p.Name)
			}
			regs[p.Reg] = fromComplex(a)
		case *ir.Array:
			if !p.IsArray {
				return fmt.Errorf("argument %d: array passed for scalar parameter %s", i, p.Name)
			}
			if a.Elem != p.Elem {
				return fmt.Errorf("argument %d: array elem %s, parameter wants %s", i, a.Elem, p.Elem)
			}
			// MATLAB value semantics: distinct parameters must not share
			// storage. Clone when the caller passes one array twice.
			for _, q := range arrays {
				if q == a {
					a = a.Clone()
					break
				}
			}
			arrays[p.Arr] = a
		default:
			return fmt.Errorf("argument %d: unsupported type %T", i, args[i])
		}
	}
	return nil
}

// collectResults marshals declared results out of the register file and
// array slots (shared by both engines).
func collectResults(prog *Program, regs []vmval, arrays []*ir.Array) ([]interface{}, error) {
	results := make([]interface{}, len(prog.Results))
	for i, r := range prog.Results {
		if r.IsArray {
			if arrays[r.Arr] == nil {
				return nil, fmt.Errorf("result %s was never allocated", r.Name)
			}
			results[i] = arrays[r.Arr]
			continue
		}
		v := regs[r.Reg]
		switch r.Elem {
		case ir.Int:
			results[i] = v.i
		case ir.Float:
			results[i] = v.f
		default:
			results[i] = v.c
		}
	}
	return results, nil
}

// exec is the reference interpreter. It runs prog from pc on the
// machine's current accounting, so the compiled engine can hand it a
// run whose cycle limit falls within the next block.
func (m *Machine) exec(ctx context.Context, prog *Program, pc int, regs []vmval, arrays []*ir.Array, maxCycles int64) error {
	fault := func(format string, a ...interface{}) error {
		return &FaultError{PC: pc, Msg: fmt.Sprintf(format, a...)}
	}
	pollIn := int64(CancelCheckStride)
	for pc < len(prog.Instrs) {
		if ctx != nil {
			if pollIn--; pollIn <= 0 {
				pollIn = CancelCheckStride
				if err := ctx.Err(); err != nil {
					return &CancelledError{Executed: m.Executed, Err: err}
				}
			}
		}
		if m.Cycles > maxCycles {
			return fault("cycle limit exceeded (%d)", maxCycles)
		}
		in := &prog.Instrs[pc]
		m.Executed++
		if m.Profile {
			m.PCCounts[pc]++
		}
		if m.Trace != nil {
			fmt.Fprintf(m.Trace, "%8d %5d: %s\n", m.Cycles, pc, disasmInstr(prog, *in))
		}
		switch in.Op {
		case OpNop:

		case OpConst:
			switch in.K.Base {
			case ir.Int:
				regs[in.Dst] = fromInt(in.ImmI)
				m.charge("imov")
			case ir.Float:
				regs[in.Dst] = fromFloat(in.ImmF)
				m.charge("fmov")
			default:
				regs[in.Dst] = fromComplex(in.ImmC)
				m.charge("cmov")
			}

		case OpMov:
			regs[in.Dst] = regs[in.A]
			m.charge(movClass(in.K))

		case OpConv:
			regs[in.Dst] = convVal(regs[in.A], in.K)
			m.charge("conv")

		case OpBin:
			v, err := m.execBin(in, regs)
			if err != nil {
				return fault("%v", err)
			}
			regs[in.Dst] = v

		case OpUn:
			v, err := m.execUn(in, regs)
			if err != nil {
				return fault("%v", err)
			}
			regs[in.Dst] = v

		case OpIntr:
			v, err := m.execIntr(in, regs)
			if err != nil {
				return fault("%v", err)
			}
			regs[in.Dst] = v

		case OpLoad:
			arr := arrays[in.Arr]
			if arr == nil {
				return fault("load from unallocated array %s", prog.Arrays[in.Arr].Name)
			}
			idx := int(regs[in.A].i)
			if idx < 0 || idx >= arr.Len() {
				return fault("load %s[%d] out of bounds (len %d)", prog.Arrays[in.Arr].Name, idx, arr.Len())
			}
			if arr.Elem == ir.Complex {
				regs[in.Dst] = fromComplex(arr.C[idx])
				m.charge("cload")
			} else {
				regs[in.Dst] = fromFloat(arr.F[idx])
				m.charge("load")
			}

		case OpVLoad:
			arr := arrays[in.Arr]
			if arr == nil {
				return fault("vload from unallocated array %s", prog.Arrays[in.Arr].Name)
			}
			base := int(regs[in.A].i)
			L := in.K.Lanes
			stride := int(in.ImmI)
			if stride == 0 {
				stride = 1
			}
			lo, hi := base, base+(L-1)*stride
			if stride < 0 {
				lo, hi = hi, lo
			}
			if lo < 0 || hi >= arr.Len() {
				return fault("vload %s[%d..%d] out of bounds (len %d)", prog.Arrays[in.Arr].Name, lo, hi, arr.Len())
			}
			lanes := make([]complex128, L)
			for j := 0; j < L; j++ {
				lanes[j] = arr.At(base + j*stride)
			}
			regs[in.Dst] = vmval{lanes: lanes}
			if stride == 1 {
				m.charge("vload")
			} else {
				// Strided load: charge the custom instruction, or its
				// serialized expansion when the target lacks one.
				name := "vlds"
				scalarClass := "load"
				if arr.Elem == ir.Complex {
					name = "vclds"
					scalarClass = "cload"
				}
				if ci := m.Proc.Instr(name); ci != nil {
					m.Cycles += int64(m.Proc.IssueCost(ci))
					m.ClassCounts[name]++
				} else {
					m.chargeN(scalarClass, int64(L))
				}
			}

		case OpStore:
			arr := arrays[in.Arr]
			if arr == nil {
				return fault("store to unallocated array %s", prog.Arrays[in.Arr].Name)
			}
			base := int(regs[in.A].i)
			val := regs[in.B]
			L := in.K.Lanes
			if base < 0 || base+L > arr.Len() {
				return fault("store %s[%d..%d] out of bounds (len %d)", prog.Arrays[in.Arr].Name, base, base+L-1, arr.Len())
			}
			if L > 1 {
				for j := 0; j < L; j++ {
					storeElem(arr, base+j, val.lane(j))
				}
				m.charge("vstore")
			} else {
				storeElem(arr, base, val.c)
				if arr.Elem == ir.Complex {
					m.charge("cstore")
				} else {
					m.charge("store")
				}
			}

		case OpAlloc:
			r := int(regs[in.A].i)
			c := int(regs[in.B].i)
			if r < 0 || c < 0 || r*c > 1<<28 {
				return fault("alloc %s: bad extent %dx%d", prog.Arrays[in.Arr].Name, r, c)
			}
			if prog.Arrays[in.Arr].Elem == ir.Complex {
				arrays[in.Arr] = ir.NewComplexArray(r, c)
			} else {
				arrays[in.Arr] = ir.NewFloatArray(r, c)
			}
			m.charge("alloc")
			// Zero-fill cost: one wide store per SIMD word.
			w := int64(m.Proc.SIMDWidth)
			if w < 1 {
				w = 1
			}
			m.chargeN("vstore", (int64(r)*int64(c)+w-1)/w)

		case OpDim:
			arr := arrays[in.Arr]
			if arr == nil {
				return fault("dim of unallocated array %s", prog.Arrays[in.Arr].Name)
			}
			switch in.ImmI {
			case int64(ir.DimRows):
				regs[in.Dst] = fromInt(int64(arr.Rows))
			case int64(ir.DimCols):
				regs[in.Dst] = fromInt(int64(arr.Cols))
			default:
				regs[in.Dst] = fromInt(int64(arr.Len()))
			}
			m.charge("imov")

		case OpSel:
			cond, th, el := regs[in.Args[0]], regs[in.Args[1]], regs[in.Args[2]]
			if in.K.Lanes <= 1 {
				if isZero(cond) {
					regs[in.Dst] = convVal(el, in.K)
				} else {
					regs[in.Dst] = convVal(th, in.K)
				}
				m.charge("fcmp")
				break
			}
			lanes := make([]complex128, in.K.Lanes)
			for j := range lanes {
				if cond.lane(j) != 0 {
					lanes[j] = th.lane(j)
				} else {
					lanes[j] = el.lane(j)
				}
				if in.K.Base != ir.Complex {
					lanes[j] = complex(real(lanes[j]), 0)
				}
			}
			regs[in.Dst] = vmval{lanes: lanes}
			m.charge("vop")

		case OpSplat:
			lanes := make([]complex128, in.K.Lanes)
			v := regs[in.A].c
			for j := range lanes {
				lanes[j] = v
			}
			regs[in.Dst] = vmval{lanes: lanes}
			m.charge("vsplat")

		case OpRamp:
			lanes := make([]complex128, in.K.Lanes)
			base := regs[in.A].i
			for j := range lanes {
				lanes[j] = complex(float64(base+int64(j)*in.ImmI), 0)
			}
			regs[in.Dst] = vmval{lanes: lanes}
			m.charge("vsplat")

		case OpReduce:
			v := regs[in.A]
			if v.lanes == nil {
				return fault("reduce of scalar register")
			}
			acc := v.lanes[0]
			for j := 1; j < len(v.lanes); j++ {
				var err error
				acc, err = scalarBin(in.BOp, in.OpBase, acc, v.lanes[j])
				if err != nil {
					return fault("%v", err)
				}
			}
			regs[in.Dst] = materialize(acc, in.K.Base)
			m.charge("vreduce")

		case OpJmp:
			m.charge("jump")
			pc = in.Off
			continue

		case OpJz:
			m.charge("branch")
			if isZero(regs[in.A]) {
				pc = in.Off
				continue
			}

		case OpRet:
			m.charge("ret")
			return nil

		default:
			return fault("bad opcode %s", in.Op)
		}
		pc++
	}
	return nil
}

func movClass(k ir.Kind) string {
	if k.Lanes > 1 {
		return "vsplat"
	}
	switch k.Base {
	case ir.Int:
		return "imov"
	case ir.Float:
		return "fmov"
	default:
		return "cmov"
	}
}

func storeElem(arr *ir.Array, i int, v complex128) {
	if arr.Elem == ir.Complex {
		arr.C[i] = v
	} else {
		arr.F[i] = real(v)
	}
}

func isZero(v vmval) bool {
	if v.lanes != nil {
		return v.lanes[0] == 0
	}
	return v.i == 0 && v.f == 0 && v.c == 0
}

// materialize builds a scalar vmval from a complex computation result at
// the given base (write-through fields like the reference evaluator).
func materialize(v complex128, base ir.BaseKind) vmval {
	switch base {
	case ir.Int:
		return fromInt(int64(real(v)))
	case ir.Float:
		return fromFloat(real(v))
	default:
		return fromComplex(v)
	}
}

// convVal implements assignment conversion (truncation toward zero for
// float→int, real part for complex→float), matching the reference
// evaluator's convertVal.
func convVal(v vmval, k ir.Kind) vmval {
	if k.Lanes > 1 {
		// Vector conversions preserve lane count.
		lanes := make([]complex128, k.Lanes)
		convInto(lanes, v, k.Base)
		return vmval{lanes: lanes}
	}
	return convScalar(v, k.Base)
}

// convScalar is assignment conversion for scalar registers.
func convScalar(v vmval, base ir.BaseKind) vmval {
	switch base {
	case ir.Int:
		return fromInt(v.i)
	case ir.Float:
		return fromFloat(v.f)
	default:
		return fromComplex(v.c)
	}
}

// convInto fills dst with the lane-wise conversion of v at the given
// base (scalars broadcast, missing source lanes read as zero). Writing
// in place over v's own lanes is safe: lane j is read before written.
func convInto(dst []complex128, v vmval, base ir.BaseKind) {
	src := v.lanes
	for j := range dst {
		var x complex128
		if src == nil {
			x = v.c
		} else if j < len(src) {
			x = src[j]
		}
		switch base {
		case ir.Int:
			dst[j] = complex(float64(int64(real(x))), 0)
		case ir.Float:
			dst[j] = complex(real(x), 0)
		default:
			dst[j] = x
		}
	}
}
