package vm

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// The compiled execution engine.
//
// Each program is translated once, from its pre-decoded table
// (prepare.go), into continuation-threaded Go closures. The translation
// depends on the program alone and is carried on the Program
// (CompiledFor); every processor read of a run goes through the charges
// the run resolves for the program's symbols from its machine's
// processor (price.go). The program is partitioned into basic blocks;
// every op of a block becomes a small typed closure capturing its
// operands and tail-calling the next, and the block's terminator
// resolves the successor pc. A block therefore executes as native Go
// control flow: no per-op switch, poll or cycle-limit branch, and no
// operand re-validation (register indices were checked at lowering;
// array bounds, the only runtime-dependent checks, remain). Every opcode
// translates; an intrinsic that faults on every processor providing it
// (unknown, wrong arity) becomes a closure returning its fault.
//
// Invariants that keep the engine cycle- and fault-exact against the
// reference interpreter:
//   - Every resumable pc is a block leader (blockLeaders), so a block
//     always runs from its first member. The pc after an OpAlloc is a
//     leader too, so its extent-dependent zero-fill charge lands when
//     its block completes, before the next block's limit check.
//   - Each run resolves the program's charge symbols on its processor
//     and sums each block's cost over its members' symbols (symOf). A
//     block's closure chain runs only when the whole block fits under
//     the cycle limit (cycles+cost <= maxCycles), which makes every
//     per-member limit check provably dead. A completed block adds its
//     cost to the cycle count and bumps its run count; an alloc adds
//     its zero-fill cycles, priced from the run's processor, and
//     records its element count. When the compiled part of the run
//     ends, before any hand-off, the run counts become symbol
//     executions, and tally (price.go) charges those and the alloc
//     extents into the class counts, the same rule Price uses. The
//     same counts, when the run completes, are its processor-
//     independent Events.
//   - A block that does not fit, or that holds an intrinsic the run's
//     processor lacks (a symbol resolved to cost -1), is handed, with
//     the machine's accounting so far, to the reference interpreter,
//     which finishes the run from that block's first pc: it faults or
//     returns within one block, producing the fault site and partial
//     accounting itself.
//   - A faulting member replays the completed prefix's charges member
//     by member, counting each member's symbol execution (honoring
//     chargeFirstOp placement), and reports its own pc and message.
//   - Cancellation stays bounded by CancelCheckStride: a block's poll
//     debt is settled before it runs, and the poll charges nothing.
//   - Machine.Profile credits every member of a completed block (and
//     the executed prefix on a fault), so per-pc profiles match the
//     reference engine.

// cont is one continuation of a compiled block: it executes its op and
// every op threaded after it. On success the int is the next pc to
// resume at (-1 = the program returned). On error the int is the
// faulting member's index within its block, so the caller can replay
// the completed prefix's charges.
type cont func(s *scratch) (int, error)

// cBlock is one basic block of a compiled program, parallel to the
// layout's span of the same index. n counts every member including the
// terminator; the block's cost is resolved per run (scratch.block).
type cBlock struct {
	n   int64
	run cont
}

// CompiledProgram is a Program translated to continuation-threaded Go
// closures. It depends on the program alone, so one translation serves
// every processor. It is immutable and safe for concurrent use; each
// run borrows a scratch arena from an internal pool.
type CompiledProgram struct {
	prog *Program
	maxL int // widest lane count in the program (≥1)
	*layout
	blocks []cBlock // 1:1 with layout.spans

	pool sync.Pool
}

// Blocks reports how many basic blocks the program translated to.
func (cp *CompiledProgram) Blocks() int { return len(cp.blocks) }

// blockLeaders marks every pc that starts a basic block: entry, branch
// targets, and the successors of control flow and of OpAlloc.
func blockLeaders(prog *Program) []bool {
	leaders := make([]bool, len(prog.Instrs)+1)
	if len(leaders) > 0 {
		leaders[0] = true
	}
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		switch in.Op {
		case OpJmp, OpJz:
			if in.Off >= 0 && in.Off < len(leaders) {
				leaders[in.Off] = true
			}
			leaders[i+1] = true
		case OpRet, OpAlloc:
			leaders[i+1] = true
		}
	}
	return leaders
}

// chargeFirstOp reports whether an opcode's cycle charge lands before
// its fault checks in the reference engine. Memory, alloc and reduce
// ops validate first and charge after; arithmetic charges before it can
// fault. Fault replay honors this placement exactly.
func chargeFirstOp(op Opc) bool {
	switch op {
	case OpLoad, OpVLoad, OpStore, OpAlloc, OpDim, OpReduce:
		return false
	}
	return true
}

// CompiledFor returns the compiled form of prog, translating it on
// the first call and returning the translation carried on prog after
// that. Concurrent first callers may translate redundantly; the first
// stored translation wins. Safe for concurrent use.
func CompiledFor(prog *Program) *CompiledProgram {
	if cp := prog.compiled.Load(); cp != nil {
		return cp
	}
	prog.compiled.CompareAndSwap(nil, compileProgram(prog))
	return prog.compiled.Load()
}

// compileProgram translates prog. Callers want CompiledFor. The decode
// is needed only while translating: each closure captures the operands
// it reads, so the table is dropped and a carried translation holds
// just its closures and layout.
func compileProgram(prog *Program) *CompiledProgram {
	code, maxL := decode(prog)
	cp := &CompiledProgram{
		prog:   prog,
		maxL:   maxL,
		layout: newLayout(prog),
	}
	cp.blocks = make([]cBlock, len(cp.spans))
	for bi, sp := range cp.spans {
		cp.blocks[bi] = cBlock{n: int64(sp.end - sp.start), run: buildChain(code, int(sp.start), int(sp.end))}
	}
	compiledStats.translations.Add(1)
	compiledStats.blocks.Add(uint64(len(cp.blocks)))
	return cp
}

// buildChain threads the block spanning [start, end) into one
// continuation, last member first. The terminator resolves the
// successor pc natively; everything before it is a typed closure
// calling the next one.
func buildChain(code []pInstr, start, end int) cont {
	last := end - 1
	var next cont
	i := last
	switch in := &code[last]; in.op {
	case OpJmp:
		off := in.off
		next = func(*scratch) (int, error) { return off, nil }
		i--
	case OpJz:
		a, off, fall := in.a, in.off, end
		next = func(s *scratch) (int, error) {
			if isZeroP(&s.regs[a]) {
				return off, nil
			}
			return fall, nil
		}
		i--
	case OpRet:
		next = func(*scratch) (int, error) { return -1, nil }
		i--
	default:
		fall := end
		next = func(*scratch) (int, error) { return fall, nil }
	}
	for ; i >= start; i-- {
		next = translateOp(&code[i], i-start, next)
	}
	return next
}

// intCond resolves a fused integer-compare opcode to its predicate at
// translate time, so the closure carries no switch.
func intCond(op Opc) func(x, y int64) bool {
	switch op {
	case xILt:
		return func(x, y int64) bool { return x < y }
	case xILe:
		return func(x, y int64) bool { return x <= y }
	case xIGt:
		return func(x, y int64) bool { return x > y }
	case xIGe:
		return func(x, y int64) bool { return x >= y }
	case xIEq:
		return func(x, y int64) bool { return x == y }
	case xINe:
		return func(x, y int64) bool { return x != y }
	case xIAnd:
		return func(x, y int64) bool { return x != 0 && y != 0 }
	default: // xIOr
		return func(x, y int64) bool { return x != 0 || y != 0 }
	}
}

// floatCond resolves a fused float-compare opcode (either result base)
// to its predicate at translate time.
func floatCond(op Opc) func(x, y float64) bool {
	switch op {
	case xFLt, xFLtI:
		return func(x, y float64) bool { return x < y }
	case xFLe, xFLeI:
		return func(x, y float64) bool { return x <= y }
	case xFGt, xFGtI:
		return func(x, y float64) bool { return x > y }
	case xFGe, xFGeI:
		return func(x, y float64) bool { return x >= y }
	case xFEq, xFEqI:
		return func(x, y float64) bool { return x == y }
	default: // xFNe, xFNeI
		return func(x, y float64) bool { return x != y }
	}
}

// translateOp builds the closure for one non-terminator member. k is
// the member's index within its block; fallible closures return it
// with their fault so the caller can replay the completed prefix's
// charges. Every case must compute exactly what the reference engine
// computes for the same op — the reference-vs-compiled differential
// tests and FuzzCompiledEngine enforce this bit for bit.
func translateOp(in *pInstr, k int, next cont) cont {
	switch in.op {
	case OpNop:
		return next

	case OpConst:
		dst, v := in.dst, in.val
		return func(s *scratch) (int, error) {
			s.regs[dst] = v
			return next(s)
		}

	case OpMov:
		dst, a := in.dst, in.a
		return func(s *scratch) (int, error) {
			src := &s.regs[a]
			lanes := src.lanes
			if lanes != nil {
				d := s.seg(dst, len(lanes))
				copy(d, lanes)
				lanes = d
			}
			dr := &s.regs[dst]
			dr.i, dr.f, dr.c, dr.lanes = src.i, src.f, src.c, lanes
			return next(s)
		}

	case OpConv:
		dst, a, kBase := in.dst, in.a, in.kBase
		if in.lanes > 1 {
			lanes := in.lanes
			return func(s *scratch) (int, error) {
				d := s.seg(dst, lanes)
				convInto(d, s.regs[a], kBase)
				s.regs[dst] = vmval{lanes: d}
				return next(s)
			}
		}
		switch kBase {
		case ir.Int:
			return func(s *scratch) (int, error) {
				setInt(&s.regs[dst], s.regs[a].i)
				return next(s)
			}
		case ir.Float:
			return func(s *scratch) (int, error) {
				setFloat(&s.regs[dst], s.regs[a].f)
				return next(s)
			}
		default:
			return func(s *scratch) (int, error) {
				setComplex(&s.regs[dst], s.regs[a].c)
				return next(s)
			}
		}

	case OpBin:
		dst, a, b := in.dst, in.a, in.b
		bop, opBase, kBase := in.bop, in.opBase, in.kBase
		if in.lanes <= 1 {
			return func(s *scratch) (int, error) {
				if err := binScalarInto(&s.regs[dst], bop, opBase, kBase, &s.regs[a], &s.regs[b]); err != nil {
					return k, err
				}
				return next(s)
			}
		}
		lanes := in.lanes
		return func(s *scratch) (int, error) {
			av, bv := &s.regs[a], &s.regs[b]
			d := s.seg(dst, lanes)
			for j := 0; j < lanes; j++ {
				r, err := binLane(bop, opBase, kBase, laneOf(av, j), laneOf(bv, j))
				if err != nil {
					return k, err
				}
				d[j] = r
			}
			s.regs[dst] = vmval{lanes: d}
			return next(s)
		}

	case xIAdd:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setInt(&s.regs[dst], s.regs[a].i+s.regs[b].i)
			return next(s)
		}

	case xISub:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setInt(&s.regs[dst], s.regs[a].i-s.regs[b].i)
			return next(s)
		}

	case xIMul:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setInt(&s.regs[dst], s.regs[a].i*s.regs[b].i)
			return next(s)
		}

	case xILt, xILe, xIGt, xIGe, xIEq, xINe, xIAnd, xIOr:
		dst, a, b := in.dst, in.a, in.b
		cond := intCond(in.op)
		return func(s *scratch) (int, error) {
			setInt(&s.regs[dst], b2i(cond(s.regs[a].i, s.regs[b].i)))
			return next(s)
		}

	case xFAdd:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setFloat(&s.regs[dst], s.regs[a].f+s.regs[b].f)
			return next(s)
		}

	case xFSub:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setFloat(&s.regs[dst], s.regs[a].f-s.regs[b].f)
			return next(s)
		}

	case xFMul:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setFloat(&s.regs[dst], s.regs[a].f*s.regs[b].f)
			return next(s)
		}

	case xFDiv:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setFloat(&s.regs[dst], s.regs[a].f/s.regs[b].f)
			return next(s)
		}

	case xFLt, xFLe, xFGt, xFGe, xFEq, xFNe,
		xFLtI, xFLeI, xFGtI, xFGeI, xFEqI, xFNeI:
		dst, a, b := in.dst, in.a, in.b
		cond := floatCond(in.op)
		return func(s *scratch) (int, error) {
			setInt(&s.regs[dst], b2i(cond(s.regs[a].f, s.regs[b].f)))
			return next(s)
		}

	case xCAdd:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setComplex(&s.regs[dst], s.regs[a].c+s.regs[b].c)
			return next(s)
		}

	case xCSub:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setComplex(&s.regs[dst], s.regs[a].c-s.regs[b].c)
			return next(s)
		}

	case xCMul:
		dst, a, b := in.dst, in.a, in.b
		return func(s *scratch) (int, error) {
			setComplex(&s.regs[dst], s.regs[a].c*s.regs[b].c)
			return next(s)
		}

	case xIntrS:
		dst, intr, kBase := in.dst, in.intr, in.kBase
		a0r, a1r := in.args[0], in.args[1]
		a2r := -1
		if len(in.args) > 2 {
			a2r = in.args[2]
		}
		return func(s *scratch) (int, error) {
			regs := s.regs
			a0 := lane0(regs, a0r)
			a1 := lane0(regs, a1r)
			var a2 complex128
			if a2r >= 0 {
				a2 = lane0(regs, a2r)
			}
			setMaterialize(&regs[dst], intrLane(intr, a0, a1, a2), kBase)
			return next(s)
		}

	case OpUn:
		dst, a := in.dst, in.a
		bop, opBase, kBase := in.bop, in.opBase, in.kBase
		if in.lanes <= 1 {
			return func(s *scratch) (int, error) {
				v, err := unScalar(bop, opBase, kBase, s.regs[a])
				if err != nil {
					return k, err
				}
				s.regs[dst] = v
				return next(s)
			}
		}
		lanes := in.lanes
		return func(s *scratch) (int, error) {
			av := &s.regs[a]
			d := s.seg(dst, lanes)
			for j := 0; j < lanes; j++ {
				v, err := unLane(bop, opBase, kBase, laneOf(av, j))
				if err != nil {
					return k, err
				}
				d[j] = v
			}
			s.regs[dst] = vmval{lanes: d}
			return next(s)
		}

	case OpIntr:
		if in.intrFault != "" {
			err := errors.New(in.intrFault)
			return func(*scratch) (int, error) { return k, err }
		}
		dst, lanes, kBase := in.dst, in.lanes, in.kBase
		if in.pat != nil {
			pat, args := in.pat, in.args
			return func(s *scratch) (int, error) {
				d := s.seg(dst, lanes)
				var argbuf [ir.MaxPatternArity]complex128
				pargs := argbuf[:len(args)]
				for j := 0; j < lanes; j++ {
					for ai, r := range args {
						pargs[ai] = laneOf(&s.regs[r], j)
					}
					d[j] = pat.EvalLane(pargs)
				}
				if lanes <= 1 {
					setMaterialize(&s.regs[dst], d[0], kBase)
				} else {
					s.regs[dst] = vmval{lanes: d}
				}
				return next(s)
			}
		}
		intr := in.intr
		a0r, a1r := in.args[0], in.args[1]
		a2r := -1
		if len(in.args) > 2 {
			a2r = in.args[2]
		}
		return func(s *scratch) (int, error) {
			a0, a1 := &s.regs[a0r], &s.regs[a1r]
			a2 := &zeroVmval
			if a2r >= 0 {
				a2 = &s.regs[a2r]
			}
			d := s.seg(dst, lanes)
			for j := 0; j < lanes; j++ {
				d[j] = intrLane(intr, laneOf(a0, j), laneOf(a1, j), laneOf(a2, j))
			}
			if lanes <= 1 {
				setMaterialize(&s.regs[dst], d[0], kBase)
			} else {
				s.regs[dst] = vmval{lanes: d}
			}
			return next(s)
		}

	case OpLoad:
		dst, a, arr, name := in.dst, in.a, in.arr, in.arrName
		if in.elem == ir.Complex {
			return func(s *scratch) (int, error) {
				ar := s.arrays[arr]
				if ar == nil {
					return k, fmt.Errorf("load from unallocated array %s", name)
				}
				idx := int(s.regs[a].i)
				if idx < 0 || idx >= ar.Len() {
					return k, fmt.Errorf("load %s[%d] out of bounds (len %d)", name, idx, ar.Len())
				}
				setComplex(&s.regs[dst], ar.C[idx])
				return next(s)
			}
		}
		return func(s *scratch) (int, error) {
			ar := s.arrays[arr]
			if ar == nil {
				return k, fmt.Errorf("load from unallocated array %s", name)
			}
			idx := int(s.regs[a].i)
			if idx < 0 || idx >= ar.Len() {
				return k, fmt.Errorf("load %s[%d] out of bounds (len %d)", name, idx, ar.Len())
			}
			setFloat(&s.regs[dst], ar.F[idx])
			return next(s)
		}

	case OpVLoad:
		dst, a, arr, name := in.dst, in.a, in.arr, in.arrName
		lanes, stride, loOff, hiOff := in.lanes, in.stride, in.loOff, in.hiOff
		cplx := in.elem == ir.Complex
		return func(s *scratch) (int, error) {
			ar := s.arrays[arr]
			if ar == nil {
				return k, fmt.Errorf("vload from unallocated array %s", name)
			}
			base := int(s.regs[a].i)
			lo, hi := base+loOff, base+hiOff
			if lo < 0 || hi >= ar.Len() {
				return k, fmt.Errorf("vload %s[%d..%d] out of bounds (len %d)", name, lo, hi, ar.Len())
			}
			d := s.seg(dst, lanes)
			if cplx && stride == 1 {
				copy(d, ar.C[base:base+lanes])
			} else {
				for j := 0; j < lanes; j++ {
					d[j] = ar.At(base + j*stride)
				}
			}
			s.regs[dst] = vmval{lanes: d}
			return next(s)
		}

	case OpStore:
		a, b, arr, name, lanes := in.a, in.b, in.arr, in.arrName, in.lanes
		return func(s *scratch) (int, error) {
			ar := s.arrays[arr]
			if ar == nil {
				return k, fmt.Errorf("store to unallocated array %s", name)
			}
			base := int(s.regs[a].i)
			val := &s.regs[b]
			if base < 0 || base+lanes > ar.Len() {
				return k, fmt.Errorf("store %s[%d..%d] out of bounds (len %d)", name, base, base+lanes-1, ar.Len())
			}
			if lanes > 1 {
				for j := 0; j < lanes; j++ {
					storeElem(ar, base+j, laneOf(val, j))
				}
			} else {
				storeElem(ar, base, val.c)
			}
			return next(s)
		}

	case OpDim:
		dst, arr, name, immI := in.dst, in.arr, in.arrName, in.immI
		return func(s *scratch) (int, error) {
			ar := s.arrays[arr]
			if ar == nil {
				return k, fmt.Errorf("dim of unallocated array %s", name)
			}
			switch immI {
			case int64(ir.DimRows):
				setInt(&s.regs[dst], int64(ar.Rows))
			case int64(ir.DimCols):
				setInt(&s.regs[dst], int64(ar.Cols))
			default:
				setInt(&s.regs[dst], int64(ar.Len()))
			}
			return next(s)
		}

	case OpSel:
		dst, kBase := in.dst, in.kBase
		condR, thR, elR := in.args[0], in.args[1], in.args[2]
		if in.lanes <= 1 {
			return func(s *scratch) (int, error) {
				src := &s.regs[elR]
				if !isZeroP(&s.regs[condR]) {
					src = &s.regs[thR]
				}
				d := &s.regs[dst]
				switch kBase {
				case ir.Int:
					setInt(d, src.i)
				case ir.Float:
					setFloat(d, src.f)
				default:
					setComplex(d, src.c)
				}
				return next(s)
			}
		}
		lanes := in.lanes
		return func(s *scratch) (int, error) {
			cond, th, el := &s.regs[condR], &s.regs[thR], &s.regs[elR]
			d := s.seg(dst, lanes)
			for j := 0; j < lanes; j++ {
				var v complex128
				if laneOf(cond, j) != 0 {
					v = laneOf(th, j)
				} else {
					v = laneOf(el, j)
				}
				if kBase != ir.Complex {
					v = complex(real(v), 0)
				}
				d[j] = v
			}
			s.regs[dst] = vmval{lanes: d}
			return next(s)
		}

	case OpSplat:
		dst, a, lanes := in.dst, in.a, in.lanes
		return func(s *scratch) (int, error) {
			d := s.seg(dst, lanes)
			v := s.regs[a].c
			for j := range d {
				d[j] = v
			}
			s.regs[dst] = vmval{lanes: d}
			return next(s)
		}

	case OpRamp:
		dst, a, lanes, step := in.dst, in.a, in.lanes, in.immI
		return func(s *scratch) (int, error) {
			d := s.seg(dst, lanes)
			base := s.regs[a].i
			for j := range d {
				d[j] = complex(float64(base+int64(j)*step), 0)
			}
			s.regs[dst] = vmval{lanes: d}
			return next(s)
		}

	case OpReduce:
		dst, a := in.dst, in.a
		bop, opBase, kBase := in.bop, in.opBase, in.kBase
		return func(s *scratch) (int, error) {
			lanes := s.regs[a].lanes
			if lanes == nil {
				return k, fmt.Errorf("reduce of scalar register")
			}
			acc := lanes[0]
			for j := 1; j < len(lanes); j++ {
				var err error
				acc, err = scalarBin(bop, opBase, acc, lanes[j])
				if err != nil {
					return k, err
				}
			}
			setMaterialize(&s.regs[dst], acc, kBase)
			return next(s)
		}

	case OpAlloc:
		ra, rb, arr, name, cplx := in.a, in.b, in.arr, in.arrName, in.elem == ir.Complex
		return func(s *scratch) (int, error) {
			r, c := int(s.regs[ra].i), int(s.regs[rb].i)
			if r < 0 || c < 0 || r*c > 1<<28 {
				return k, fmt.Errorf("alloc %s: bad extent %dx%d", name, r, c)
			}
			if cplx {
				s.arrays[arr] = ir.NewComplexArray(r, c)
			} else {
				s.arrays[arr] = ir.NewFloatArray(r, c)
			}
			// The zero-fill's cycles land now: an alloc ends its block,
			// so the next check is the next block's, which is where the
			// reference engine checks them. Its class count is charged
			// from the recorded extent at the end of the run.
			elems := int64(r) * int64(c)
			s.cycles += s.zero.cost * s.zero.words(elems)
			s.allocs[elems]++
			return next(s)
		}
	}

	// Unreachable for validated programs: fault like the reference engine.
	err := fmt.Errorf("bad opcode %s", in.op)
	return func(*scratch) (int, error) { return k, err }
}

// getScratch borrows a zeroed scratch arena for a run. Its buffers are
// sized to the program alone, so one arena serves every processor.
func (cp *CompiledProgram) getScratch() *scratch {
	if s, ok := cp.pool.Get().(*scratch); ok {
		return s
	}
	n := cp.prog.NumRegs
	return &scratch{
		regs:      make([]vmval, n),
		arrays:    make([]*ir.Array, len(cp.prog.Arrays)),
		charges:   make([]charge, len(cp.syms)),
		block:     make([]int64, len(cp.spans)),
		runs:      make([]int64, len(cp.blocks)),
		symCounts: make([]int64, len(cp.syms)),
		allocs:    make(map[int64]int64),
		lanebuf:   make([]complex128, n*cp.maxL),
		maxL:      cp.maxL,
	}
}

func (cp *CompiledProgram) putScratch(s *scratch) {
	clear(s.regs)
	clear(s.arrays) // drop array references so results don't pin the pool
	clear(s.runs)
	clear(s.symCounts)
	clear(s.allocs)
	s.cycles = 0
	cp.pool.Put(s)
}

// price resolves the program's symbols on proc into s and totals each
// block's cost: -1 for a block holding an intrinsic proc lacks, which
// exec hands to the reference interpreter to fault there.
func (cp *CompiledProgram) price(s *scratch, proc *pdesc.Processor) {
	s.charges = cp.charges(s.charges, proc)
	for bi, sp := range cp.spans {
		var cost int64
		for _, si := range cp.symOf[sp.start:sp.end] {
			c := s.charges[si].cost
			if c < 0 {
				cost = -1
				break
			}
			cost += c
		}
		s.block[bi] = cost
	}
	s.zero = newZeroFill(proc)
}

// run executes the compiled program on behalf of m.Run. The machine's
// Cycles/Executed/ClassCounts have already been reset; they are updated
// here even when execution faults, matching the reference engine's
// partial state on error. A non-nil ev receives the run's events when
// the compiled engine completes it.
func (cp *CompiledProgram) run(m *Machine, ctx context.Context, maxCycles int64, args []interface{}, ev **Events) ([]interface{}, error) {
	s := cp.getScratch()
	defer cp.putScratch(s)
	cp.price(s, m.Proc)
	if err := bindArgs(cp.prog, args, s.regs, s.arrays); err != nil {
		return nil, err
	}
	pc, err := cp.exec(m, ctx, s, maxCycles)
	// Completed blocks and allocs were only counted; add the blocks'
	// symbol executions to any fault replay's and charge the class
	// counts and per-pc profile now, in bulk.
	cp.count(s.runs, s.symCounts)
	tally(m.ClassCounts, s.charges, s.symCounts, s.allocs, s.zero)
	if m.Profile {
		for bi, r := range s.runs {
			if r != 0 {
				sp := cp.spans[bi]
				for j := sp.start; j < sp.end; j++ {
					m.PCCounts[j] += r
				}
			}
		}
	}
	handedOff := err == nil && pc >= 0 && pc < len(cp.prog.Instrs)
	if handedOff {
		// The cycle limit falls within the block at pc, or the block
		// holds an intrinsic the processor lacks: the reference
		// interpreter finishes the run from there, on the machine's
		// accounting so far.
		err = m.exec(ctx, cp.prog, pc, s.regs, s.arrays, maxCycles)
	}
	if err != nil {
		return nil, err
	}
	out, err := collectResults(cp.prog, s.regs, s.arrays)
	if err == nil && ev != nil && !handedOff {
		*ev = newEvents(cp.layout, slices.Clone(s.runs), maps.Clone(s.allocs))
	}
	return out, err
}

// exec is the compiled hot loop: one iteration per basic block. It
// stops at the program's end, at a fault, or before a block that does
// not fit under maxCycles or that the run hands off (a negative block cost),
// returning that block's first pc for the reference interpreter to
// resume at. A completed block only bumps its run count; run turns the
// counts into class counts and profile.
func (cp *CompiledProgram) exec(m *Machine, ctx context.Context, s *scratch, maxCycles int64) (int, error) {
	var executed int64
	defer func() {
		m.Cycles = s.cycles
		m.Executed = executed
	}()

	runs := s.runs
	code := cp.prog.Instrs
	pollIn := int64(CancelCheckStride)
	pc := 0
	for pc >= 0 && pc < len(code) {
		bi := cp.blockOf[pc]
		b := &cp.blocks[bi]
		// Settle the whole block's poll debt before it runs: fewer than
		// CancelCheckStride instructions ever separate two polls.
		if ctx != nil {
			if pollIn -= b.n; pollIn <= 0 {
				pollIn = CancelCheckStride
				if err := ctx.Err(); err != nil {
					return pc, &CancelledError{Executed: executed, Err: err}
				}
			}
		}
		cost := s.block[bi]
		if cost < 0 || s.cycles+cost > maxCycles {
			return pc, nil
		}
		// The whole block fits under the cycle limit (the per-member
		// checks provably cannot fire), so the closure chain runs
		// semantics-only and accounting lands once, batched.
		next, ferr := b.run(s)
		if ferr == nil {
			s.cycles += cost
			executed += b.n
			runs[bi]++
			pc = next
			continue
		}
		// Member `next` faulted: replay the completed prefix's charges,
		// plus the member's own charge when its opcode charges before
		// its fault checks, then report the member's pc — bit-identical
		// to the reference engine.
		k, start := next, int(cp.spans[bi].start)
		for j := 0; j <= k; j++ {
			if j == k && !chargeFirstOp(code[start+j].Op) {
				break
			}
			si := cp.symOf[start+j]
			s.cycles += s.charges[si].cost
			s.symCounts[si]++
		}
		executed += int64(k) + 1
		if m.Profile {
			for j := 0; j <= k; j++ {
				m.PCCounts[start+j]++
			}
		}
		return pc, &FaultError{PC: start + k, Msg: ferr.Error()}
	}
	return pc, nil
}

// compiledStats are process-wide translation counters, exported for
// /metrics and asipdse -cachestats. They accrue per compileProgram,
// never per run, so the hot loop stays free of atomics.
var compiledStats struct {
	translations atomic.Uint64
	blocks       atomic.Uint64
}

// CompiledInfo is a point-in-time snapshot of the compiled engine's
// translation counters, exported for service metrics and tooling.
type CompiledInfo struct {
	// Translations counts programs translated to closure chains.
	Translations uint64 `json:"translations"`
	// BlocksCompiled counts basic blocks translated to closure chains
	// across all translations.
	BlocksCompiled uint64 `json:"blocks_compiled"`
}

// CompiledStats reports the process-wide translation counters.
func CompiledStats() CompiledInfo {
	return CompiledInfo{
		Translations:   compiledStats.translations.Load(),
		BlocksCompiled: compiledStats.blocks.Load(),
	}
}

// ResetCompiledStats zeroes the translation counters (tests).
func ResetCompiledStats() {
	compiledStats.translations.Store(0)
	compiledStats.blocks.Store(0)
}
