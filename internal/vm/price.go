package vm

import (
	"context"
	"fmt"
	"maps"

	"mat2c/internal/ir"
	"mat2c/internal/lru"
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
//   - chargeOf is the one copy of the per-instruction charging rules
//     outside the reference interpreter: priceProgram resolves through
//     it both the charges a compiled run executes with and the charges
//     of a processor Price is asked about. A translation depends on the
//     program alone; every processor read of a compiled run goes
//     through its prices.
//   - prices.account is the one place block runs and alloc extents
//     become charges: it is the compiled engine's end-of-run accounting
//     and the body of Price.
//   - The two run-time charges that read the processor are priced from
//     events, never recorded as charges: a strided vector load is
//     vlds/vclds or L scalar loads per execution of its block, and an
//     alloc's zero-fill is zeroFill.words(elements) vstores.
//   - Price is exact or declines. It declines when the processor lacks
//     an intrinsic the run executed (the real run faults there) and
//     when the priced cycles exceed the machine's limit (the real run
//     faults or hands its tail to the reference interpreter); the
//     caller then runs the program, so fault sites and partial
//     accounting still come from the engines.

// charge is one instruction's primary charge on one processor: each
// execution adds cost cycles and n to the count of class. A class of -1
// charges nothing.
type charge struct {
	class int32
	cost  int64
	n     int64
}

// chargeOf resolves in's primary charge on proc. ok is false when in is
// an intrinsic proc does not provide: it faults before any charge.
func chargeOf(prog *Program, in *Instr, proc *pdesc.Processor, table *pdesc.CostTable) (c charge, ok bool) {
	c = charge{class: -1}
	set := func(name string, n int64) {
		id, found := table.ID(name)
		if !found {
			// Unreachable: every class the VM charges is either in
			// pdesc's architectural table or an instruction name.
			panic("vm: cost class " + name + " missing from cost table")
		}
		c = charge{class: int32(id), cost: table.Cost(id) * n, n: n}
	}
	// issue charges one issue of a custom instruction at its declared
	// issue cost, not the architectural cost of a class it may shadow.
	issue := func(ci *pdesc.Instr) {
		set(ci.Name, 1)
		c.cost = int64(proc.IssueCost(ci))
	}
	elem := ir.Float
	if in.Arr >= 0 && in.Arr < len(prog.Arrays) {
		elem = prog.Arrays[in.Arr].Elem
	}
	switch in.Op {
	case OpConst:
		switch in.K.Base {
		case ir.Int:
			set("imov", 1)
		case ir.Float:
			set("fmov", 1)
		default:
			set("cmov", 1)
		}
	case OpMov:
		set(movClass(in.K), 1)
	case OpConv:
		set("conv", 1)
	case OpBin:
		set(binClass(in), 1)
	case OpUn:
		set(UnChargeClass(in.BOp, in.OpBase, in.K.Lanes))
	case OpIntr:
		ci := proc.Instr(in.Intr)
		if ci == nil {
			return c, false
		}
		issue(ci)
	case OpLoad:
		if elem == ir.Complex {
			set("cload", 1)
		} else {
			set("load", 1)
		}
	case OpVLoad:
		if in.ImmI == 0 || in.ImmI == 1 {
			set("vload", 1)
			break
		}
		// Strided load: the custom instruction when declared, else its
		// serialized scalar expansion.
		name, scalarClass := "vlds", "load"
		if elem == ir.Complex {
			name, scalarClass = "vclds", "cload"
		}
		if ci := proc.Instr(name); ci != nil {
			issue(ci)
		} else {
			set(scalarClass, int64(in.K.Lanes))
		}
	case OpStore:
		switch {
		case in.K.Lanes > 1:
			set("vstore", 1)
		case elem == ir.Complex:
			set("cstore", 1)
		default:
			set("store", 1)
		}
	case OpAlloc:
		set("alloc", 1)
	case OpDim:
		set("imov", 1)
	case OpSel:
		if in.K.Lanes <= 1 {
			set("fcmp", 1)
		} else {
			set("vop", 1)
		}
	case OpSplat, OpRamp:
		set("vsplat", 1)
	case OpReduce:
		set("vreduce", 1)
	case OpJmp:
		set("jump", 1)
	case OpJz:
		set("branch", 1)
	case OpRet:
		set("ret", 1)
	}
	return c, true
}

// zeroFill prices an alloc's zero-fill on one processor: one vstore per
// SIMD word of the allocated elements.
type zeroFill struct {
	class int32
	cost  int64
	width int64
}

func newZeroFill(proc *pdesc.Processor, table *pdesc.CostTable) zeroFill {
	id, _ := table.ID("vstore")
	w := int64(proc.SIMDWidth)
	if w < 1 {
		w = 1
	}
	return zeroFill{class: int32(id), cost: table.Cost(id), width: w}
}

// words is the number of vstores zero-filling elems elements.
func (z zeroFill) words(elems int64) int64 { return (elems + z.width - 1) / z.width }

// costTables memoizes pdesc.NewCostTable per processor pointer: a
// sweep prices every kernel of a variant against one long-lived
// processor, and a table takes tens of microseconds to build. Bounded,
// so retired sweep variants become collectable.
var costTables = lru.New[*pdesc.Processor, *pdesc.CostTable](costTableMemoCap)

const costTableMemoCap = 4096

func costTable(p *pdesc.Processor) *pdesc.CostTable {
	if t, ok := costTables.Get(p); ok {
		return t
	}
	t, _ := costTables.Add(p, pdesc.NewCostTable(p))
	return t
}

// prices is one processor's charge for every instruction and basic
// block of one program, resolved without translating anything.
type prices struct {
	table *pdesc.CostTable
	at    []charge // 1:1 with prog.Instrs
	// block is each layout span's total charge, or -1 when the span
	// holds a pc in missing: the compiled engine hands such a block to
	// the reference interpreter, which faults there.
	block []int64
	zero  zeroFill
	// missing lists the pcs of intrinsics the processor lacks.
	missing []int
}

func priceProgram(prog *Program, l *layout, proc *pdesc.Processor) *prices {
	table := costTable(proc)
	p := &prices{
		table: table,
		at:    make([]charge, len(prog.Instrs)),
		block: make([]int64, len(l.spans)),
		zero:  newZeroFill(proc, table),
	}
	for pc := range prog.Instrs {
		c, ok := chargeOf(prog, &prog.Instrs[pc], proc, table)
		if !ok {
			p.missing = append(p.missing, pc)
		}
		p.at[pc] = c
	}
	for bi, b := range l.spans {
		for _, c := range p.at[b.start:b.end] {
			p.block[bi] += c.cost
		}
	}
	for _, pc := range p.missing {
		p.block[l.blockOf[pc]] = -1
	}
	return p
}

// account charges a run's completed blocks (block b completed runs[b]
// times) and executed allocs (allocs[elems] allocs of elems elements)
// at p into counts and touched, and returns the cycles and instructions
// they total.
func (p *prices) account(blocks []span, runs []int64, allocs map[int64]int64, counts []int64, touched []bool) (cycles, executed int64) {
	for bi, r := range runs {
		if r == 0 {
			continue
		}
		b := blocks[bi]
		executed += r * int64(b.end-b.start)
		for _, c := range p.at[b.start:b.end] {
			cycles += r * c.cost
			if c.class >= 0 && c.n != 0 {
				counts[c.class] += r * c.n
				touched[c.class] = true
			}
		}
	}
	z := p.zero
	for elems, times := range allocs {
		words := times * z.words(elems)
		cycles += words * z.cost
		counts[z.class] += words
		touched[z.class] = true
	}
	return cycles, executed
}

// tally adds the touched dense class counts to a ClassCounts map.
func (p *prices) tally(dst map[string]int64, counts []int64, touched []bool) {
	for id, t := range touched {
		if t {
			dst[p.table.Name(id)] += counts[id]
		}
	}
}

// span is one basic block's half-open pc range.
type span struct{ start, end int32 }

// layout is a program's partition into basic blocks. It depends on the
// program alone (blockLeaders), so events recorded on one processor
// index the same blocks on every other.
type layout struct {
	spans   []span
	blockOf []int32 // pc -> index into spans
}

func newLayout(prog *Program) *layout {
	leaders := blockLeaders(prog)
	l := &layout{blockOf: make([]int32, len(prog.Instrs))}
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
	return l
}

// Events is the processor-independent record of one completed run: how
// many times each basic block completed and how many elements each
// executed alloc allocated. It depends on the program and its arguments
// alone, and is immutable once returned.
type Events struct {
	blocks *layout
	runs   []int64
	allocs map[int64]int64 // elements -> allocs of that many
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
	return &Events{blocks: l, runs: runs, allocs: maps.Clone(allocs)}, nil
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
// limit — or when the machine profiles or traces, which only a run
// does; the caller must then run the program instead. Priced cycles
// over the limit are declined even when only the last instruction
// crosses it, although such a run completes (see MaxCycles): the
// caller's run then reports that accounting.
func (m *Machine) Price(prog *Program, ev *Events) bool {
	if m.Profile || m.Trace != nil {
		return false
	}
	p := priceProgram(prog, ev.blocks, m.Proc)
	for _, pc := range p.missing {
		if ev.runs[ev.blocks.blockOf[pc]] > 0 {
			return false
		}
	}
	counts := make([]int64, p.table.Len())
	touched := make([]bool, p.table.Len())
	cycles, executed := p.account(ev.blocks.spans, ev.runs, ev.allocs, counts, touched)
	if cycles > m.maxCycles() {
		return false
	}
	m.reset(prog)
	m.Cycles, m.Executed = cycles, executed
	p.tally(m.ClassCounts, counts, touched)
	return true
}
