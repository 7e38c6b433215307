package isx

import (
	"context"
	"errors"

	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

// profile is one kernel's compiled program annotated with dynamic
// execution counts: sites[pc] is the post-isel IR expression that
// prog.Instrs[pc] computes (nil for control flow and moves) and
// counts[pc] how often it executed on the profiled input.
type profile struct {
	kernel *bench.Kernel
	n      int
	base   int64 // cycles of the profiled base run
	sites  []ir.Expr
	counts []int64
}

// profileKernel compiles k with the full proposed pipeline for proc and
// looks its verified run on the profiled input up through runs, as
// candidate verification does, so a repeated mine simulates nothing.
// Each pc of the run executed as often as its basic block completed
// (vm.Events.Blocks). Mining the post-isel IR keeps the candidate pool
// self-consistent: shapes the target already fuses are intrinsics by
// now, so every mined pattern is genuinely new on proc.
func profileKernel(ctx context.Context, proc *pdesc.Processor, k *bench.Kernel, scale float64) (*profile, error) {
	res, err := core.CompileContext(ctx, k.Source, k.Entry, k.Params, core.Proposed(proc))
	if err != nil {
		return nil, err
	}
	prog, sites, err := vm.LowerWithSites(res.Func)
	if err != nil {
		return nil, err
	}
	n := bench.SizeFor(k, scale)
	m := vm.NewMachine(proc)
	ev, err := k.Simulate(ctx, runs, m, prog, n)
	if err != nil {
		return nil, err
	}
	if ev == nil {
		return nil, errors.New("the run recorded no events")
	}
	counts := make([]int64, len(prog.Instrs))
	for _, b := range ev.Blocks() {
		for pc := b.Start; pc < b.End; pc++ {
			counts[pc] = b.Runs
		}
	}
	return &profile{kernel: k, n: n, base: m.Cycles, sites: sites, counts: counts}, nil
}
