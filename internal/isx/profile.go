package isx

import (
	"context"

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
// runs it once under the VM profiler. Mining the post-isel IR keeps the
// candidate pool self-consistent: shapes the target already fuses are
// intrinsics by now, so every mined pattern is genuinely new on proc.
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
	m.Profile = true
	if _, err := m.RunContext(ctx, prog, k.Case(n).Args()...); err != nil {
		return nil, err
	}
	counts := make([]int64, len(m.PCCounts))
	copy(counts, m.PCCounts)
	return &profile{kernel: k, n: n, base: m.Cycles, sites: sites, counts: counts}, nil
}
