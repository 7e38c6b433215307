package vm

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// Pricing runs from processor-independent events.
//
// A processor reaches a run's outcome only through prices: the values
// computed, the branches taken and the arrays allocated depend on the
// program and its arguments alone. A completed run is therefore fully
// described, for every processor, by its Events: how many times each
// basic block completed and the element count of every executed alloc.
// Price turns events into the Cycles, Executed and ClassCounts a run on
// any processor reports, without translating or running anything.
//
// Invariants:
//   - Every instruction's charge is a symbol (symbolOf), which depends
//     on the program alone: n charges of a named class, or one issue of
//     a named custom instruction, falling back for a strided load to
//     lane-count charges of a scalar class. A program's layout holds its
//     distinct symbols and the symbol of every pc. symbolOf and resolve
//     are the one copy of the charging rules outside the reference
//     interpreter, and resolve is the only place a processor is read:
//     a class's cost, a custom instruction's existence and issue cost.
//   - tally is the one place symbol executions and alloc extents become
//     Cycles and ClassCounts: it is the compiled engine's end-of-run
//     accounting and the body of Price. Events count each symbol's
//     executions once, when they are made, so Price resolves a few
//     dozen symbols and multiplies, with no per-instruction work.
//   - An alloc's zero-fill is the one run-time charge that reads the
//     processor's SIMD width: zeroFill.words(elements) vstores, priced
//     from the recorded extents, never recorded as a charge.
//   - Price is exact or declines. It declines when the processor lacks
//     an intrinsic the run executed (the real run faults there) and
//     when the priced cycles exceed the machine's limit (the real run
//     faults or hands its tail to the reference interpreter); the
//     caller then runs the program, so fault sites and partial
//     accounting still come from the engines.

// symbol is one instruction's charge, independent of any processor.
// When instr is set, an execution issues that custom instruction once
// where the processor provides it; otherwise, or without instr, it
// charges n of class. A symbol with neither charges nothing, and one
// with instr but no class faults where instr is missing.
type symbol struct {
	instr string
	class string
	n     int64
}

// symbolOf is in's charge symbol.
func symbolOf(prog *Program, in *Instr) symbol {
	class := func(name string) symbol { return symbol{class: name, n: 1} }
	elem := ir.Float
	if in.Arr >= 0 && in.Arr < len(prog.Arrays) {
		elem = prog.Arrays[in.Arr].Elem
	}
	switch in.Op {
	case OpConst:
		switch in.K.Base {
		case ir.Int:
			return class("imov")
		case ir.Float:
			return class("fmov")
		default:
			return class("cmov")
		}
	case OpMov:
		return class(movClass(in.K))
	case OpConv:
		return class("conv")
	case OpBin:
		return class(binClass(in))
	case OpUn:
		name, n := UnChargeClass(in.BOp, in.OpBase, in.K.Lanes)
		return symbol{class: name, n: n}
	case OpIntr:
		return symbol{instr: in.Intr}
	case OpLoad:
		if elem == ir.Complex {
			return class("cload")
		}
		return class("load")
	case OpVLoad:
		if in.ImmI == 0 || in.ImmI == 1 {
			return class("vload")
		}
		// Strided load: the custom instruction when declared, else its
		// serialized scalar expansion.
		if elem == ir.Complex {
			return symbol{instr: "vclds", class: "cload", n: int64(in.K.Lanes)}
		}
		return symbol{instr: "vlds", class: "load", n: int64(in.K.Lanes)}
	case OpStore:
		switch {
		case in.K.Lanes > 1:
			return class("vstore")
		case elem == ir.Complex:
			return class("cstore")
		default:
			return class("store")
		}
	case OpAlloc:
		return class("alloc")
	case OpDim:
		return class("imov")
	case OpSel:
		if in.K.Lanes <= 1 {
			return class("fcmp")
		}
		return class("vop")
	case OpSplat, OpRamp:
		return class("vsplat")
	case OpReduce:
		return class("vreduce")
	case OpJmp:
		return class("jump")
	case OpJz:
		return class("branch")
	case OpRet:
		return class("ret")
	}
	return symbol{}
}

// charge is a symbol resolved on one processor: each execution adds
// cost cycles and n to ClassCounts[class]. A cost of -1 marks an
// intrinsic the processor lacks: it faults before any charge.
type charge struct {
	class   string
	cost, n int64
}

// resolve prices sym on proc. A custom instruction is charged one
// issue at its declared issue cost, under its own name, not at the
// architectural cost of a class it may shadow.
func resolve(sym symbol, proc *pdesc.Processor) charge {
	if sym.instr != "" {
		if ci := proc.Instr(sym.instr); ci != nil {
			return charge{class: ci.Name, cost: int64(proc.IssueCost(ci)), n: 1}
		}
		if sym.class == "" {
			return charge{cost: -1}
		}
	}
	if sym.class == "" {
		return charge{}
	}
	return charge{class: sym.class, cost: int64(proc.Cost(sym.class)) * sym.n, n: sym.n}
}

// zeroFill prices an alloc's zero-fill on one processor: one vstore per
// SIMD word of the allocated elements.
type zeroFill struct {
	cost  int64
	width int64
}

func newZeroFill(proc *pdesc.Processor) zeroFill {
	return zeroFill{cost: int64(proc.Cost("vstore")), width: int64(max(proc.SIMDWidth, 1))}
}

// words is the number of vstores zero-filling elems elements.
func (z zeroFill) words(elems int64) int64 { return (elems + z.width - 1) / z.width }

// tally is the one accounting rule: it charges counts[i] executions of
// symbol i at charges[i], and the zero-fill of allocs (allocs[elems]
// allocs of elems elements) at z, adding the class counts to dst by
// name. It returns the cycles they total; a nil dst only totals them.
func tally(dst map[string]int64, charges []charge, counts []int64, allocs map[int64]int64, z zeroFill) (cycles int64) {
	for i, r := range counts {
		if r == 0 {
			continue
		}
		c := charges[i]
		cycles += r * c.cost
		if dst != nil && c.class != "" {
			dst[c.class] += r * c.n
		}
	}
	for elems, times := range allocs {
		words := times * z.words(elems)
		cycles += words * z.cost
		if dst != nil {
			dst["vstore"] += words
		}
	}
	return cycles
}

// span is one basic block's half-open pc range.
type span struct{ start, end int32 }

// layout is a program's partition into basic blocks and its charge
// symbols. It depends on the program alone (blockLeaders, symbolOf), so
// events recorded on one processor index the same blocks and symbols
// on every other.
type layout struct {
	spans   []span
	blockOf []int32  // pc -> index into spans
	syms    []symbol // the program's distinct charge symbols
	symOf   []int32  // pc -> index into syms
}

func newLayout(prog *Program) *layout {
	leaders := blockLeaders(prog)
	l := &layout{blockOf: make([]int32, len(prog.Instrs)), symOf: make([]int32, len(prog.Instrs))}
	start := 0
	for pc := 1; pc <= len(prog.Instrs); pc++ {
		if pc < len(prog.Instrs) && !leaders[pc] {
			continue
		}
		for i := start; i < pc; i++ {
			l.blockOf[i] = int32(len(l.spans))
		}
		l.spans = append(l.spans, span{int32(start), int32(pc)})
		start = pc
	}
	index := map[symbol]int32{}
	for pc := range prog.Instrs {
		sym := symbolOf(prog, &prog.Instrs[pc])
		si, ok := index[sym]
		if !ok {
			si = int32(len(l.syms))
			index[sym] = si
			l.syms = append(l.syms, sym)
		}
		l.symOf[pc] = si
	}
	return l
}

// charges resolves every symbol of l on proc, appending to dst[:0].
func (l *layout) charges(dst []charge, proc *pdesc.Processor) []charge {
	dst = slices.Grow(dst[:0], len(l.syms))
	for _, sym := range l.syms {
		dst = append(dst, resolve(sym, proc))
	}
	return dst
}

// count adds each symbol's executions in the blocks runs completed
// (block b completed runs[b] times) to counts, and returns the
// instructions those blocks executed.
func (l *layout) count(runs, counts []int64) (executed int64) {
	for bi, r := range runs {
		if r == 0 {
			continue
		}
		sp := l.spans[bi]
		executed += r * int64(sp.end-sp.start)
		for _, si := range l.symOf[sp.start:sp.end] {
			counts[si] += r
		}
	}
	return executed
}

// Events is the processor-independent record of one completed run: how
// many times each basic block completed and how many elements each
// executed alloc allocated. It depends on the program and its arguments
// alone, and is immutable once returned.
type Events struct {
	blocks *layout
	runs   []int64
	allocs map[int64]int64 // elements -> allocs of that many
	// counts (executions per layout symbol) and executed are derived
	// from runs once, when the events are made.
	counts   []int64
	executed int64
}

// newEvents records a completed run's block runs and alloc extents on
// l, taking ownership of runs and allocs.
func newEvents(l *layout, runs []int64, allocs map[int64]int64) *Events {
	ev := &Events{blocks: l, runs: runs, allocs: allocs, counts: make([]int64, len(l.syms))}
	ev.executed = l.count(runs, ev.counts)
	return ev
}

// EventBlock is one basic block as Events index it: its half-open pc
// range [Start, End) and how many times the run completed it.
type EventBlock struct {
	Start, End int32
	Runs       int64
}

// Blocks returns the run's basic blocks in pc order, each with its
// completed-run count.
func (ev *Events) Blocks() []EventBlock {
	out := make([]EventBlock, len(ev.runs))
	for bi, r := range ev.runs {
		sp := ev.blocks.spans[bi]
		out[bi] = EventBlock{Start: sp.start, End: sp.end, Runs: r}
	}
	return out
}

// Allocs returns the run's executed allocs: how many allocs of each
// element count.
func (ev *Events) Allocs() map[int64]int64 { return maps.Clone(ev.allocs) }

// NewEvents rebuilds the events of a completed run of prog from what
// Blocks and Allocs reported for it. It lays prog out into basic blocks
// afresh, translating nothing, and fails when blocks does not match
// that layout span for span, or when a count is negative or an alloc
// entry counts no allocs.
func NewEvents(prog *Program, blocks []EventBlock, allocs map[int64]int64) (*Events, error) {
	l := newLayout(prog)
	if len(blocks) != len(l.spans) {
		return nil, fmt.Errorf("vm: events have %d blocks, program %s has %d", len(blocks), prog.Name, len(l.spans))
	}
	runs := make([]int64, len(blocks))
	for bi, b := range blocks {
		if sp := l.spans[bi]; b.Start != sp.start || b.End != sp.end {
			return nil, fmt.Errorf("vm: events block %d spans pcs [%d,%d), program %s lays it out as [%d,%d)",
				bi, b.Start, b.End, prog.Name, sp.start, sp.end)
		}
		if b.Runs < 0 {
			return nil, fmt.Errorf("vm: events block %d has %d runs", bi, b.Runs)
		}
		runs[bi] = b.Runs
	}
	for elems, times := range allocs {
		if elems < 0 || times < 1 {
			return nil, fmt.Errorf("vm: events record %d allocs of %d elements", times, elems)
		}
	}
	return newEvents(l, runs, maps.Clone(allocs)), nil
}

// RunEvents runs like RunContext and also returns the run's events for
// Price: non-nil only when the run completed without error entirely on
// the compiled engine (not traced, not on the reference engine, and
// finished before its cycle limit came within one block).
func (m *Machine) RunEvents(ctx context.Context, prog *Program, args ...interface{}) ([]interface{}, *Events, error) {
	var ev *Events
	out, err := m.runContext(ctx, prog, args, &ev)
	return out, ev, err
}

// Price sets the machine's Cycles, Executed and ClassCounts to exactly
// what running prog on it would report, given the events of a completed
// run of a content-identical program on any processor. It returns false
// without pricing when it cannot be exact — the processor lacks an
// intrinsic the run executed, or the priced cycles exceed the cycle
// limit — or when the machine traces, which only a run does; the
// caller must then run the program instead. Priced cycles
// over the limit are declined even when only the last instruction
// crosses it, although such a run completes (see MaxCycles): the
// caller's run then reports that accounting.
func (m *Machine) Price(prog *Program, ev *Events) bool {
	if m.Trace != nil {
		return false
	}
	charges := ev.blocks.charges(nil, m.Proc)
	for i, c := range charges {
		if c.cost < 0 && ev.counts[i] > 0 {
			return false
		}
	}
	z := newZeroFill(m.Proc)
	if tally(nil, charges, ev.counts, ev.allocs, z) > m.maxCycles() {
		return false
	}
	m.reset()
	m.Cycles = tally(m.ClassCounts, charges, ev.counts, ev.allocs, z)
	m.Executed = ev.executed
	return true
}
