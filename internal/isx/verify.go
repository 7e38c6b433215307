package isx

import (
	"context"
	"errors"
	"fmt"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

// ProfileSummary is the per-kernel slice of a mining profile that
// candidate verification needs: which input size was profiled and the
// base-run cycle count. It is wire-friendly (JSON) so sharded fleet
// verification can run on a worker that never saw the profiling pass.
type ProfileSummary struct {
	Kernel     string `json:"kernel"`
	N          int    `json:"n"`
	BaseCycles int64  `json:"base_cycles"`
}

// VerifyCandidate measures c on every summarized kernel it was mined
// from: derive a processor carrying just this candidate, recompile,
// re-simulate the same profiled input, check the outputs against the
// kernel's Matlab reference, and record the measured cycle delta next
// to the estimate. It is a pure function of (proc, c, profiles), so a
// verification unit dispatched to a fleet worker returns exactly the
// deltas a single-process mine would have computed.
func VerifyCandidate(ctx context.Context, proc *pdesc.Processor, c *Candidate, profiles []ProfileSummary) []KernelDelta {
	ext, err := Extend(proc, proc.Name+"+"+c.Name, c)
	var deltas []KernelDelta
	for _, pr := range profiles {
		est := c.EstByKernel[pr.Kernel]
		if est == 0 {
			continue
		}
		d := KernelDelta{
			Kernel:     pr.Kernel,
			N:          pr.N,
			BaseCycles: pr.BaseCycles,
			Estimated:  est,
		}
		if err != nil {
			d.Err = fmt.Sprintf("derive: %v", err)
			deltas = append(deltas, d)
			continue
		}
		k := bench.KernelByName(pr.Kernel)
		if k == nil {
			d.Err = fmt.Sprintf("unknown kernel %q", pr.Kernel)
			deltas = append(deltas, d)
			continue
		}
		cycles, selected, merr := measure(ctx, ext, k, pr.N, c)
		if merr != nil {
			d.Err = merr.Error()
		} else {
			d.NewCycles = cycles
			d.Measured = pr.BaseCycles - cycles
			d.Selected = selected
			if cycles > 0 {
				d.Speedup = float64(pr.BaseCycles) / float64(cycles)
			}
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// runs is the cache candidate runs are looked up through: each
// distinct (program, case) is simulated and verified once per process
// and priced after, so a repeated mine (a repeated /isx request, a
// re-dispatched fleet unit) measures its candidates without simulating
// them again.
var runs = mat2c.NewCache(0)

// RunStats snapshots the cache candidate runs are looked up through:
// its event_* counters count the runs simulated and priced.
func RunStats() mat2c.CacheStats { return runs.Stats() }

// measure runs kernel k on proc (which carries candidate c) and
// returns the cycle count and how many sites selected the candidate.
// The outputs are verified against the kernel's reference
// implementation, so a candidate with broken semantics can never
// report a speedup.
func measure(ctx context.Context, proc *pdesc.Processor, k *bench.Kernel, n int, c *Candidate) (int64, int, error) {
	res, err := core.CompileContext(ctx, k.Source, k.Entry, k.Params, core.Proposed(proc))
	if err != nil {
		return 0, 0, err
	}
	m := vm.NewMachine(proc)
	if err := k.Simulate(ctx, runs, m, res.Program, n); err != nil {
		var verr *bench.VerifyError
		if errors.As(err, &verr) {
			return 0, 0, fmt.Errorf("output mismatch: %v", verr.Err)
		}
		return 0, 0, err
	}
	sel := res.Intrinsics.Selected[c.Name] + res.Intrinsics.Selected["v"+c.Name]
	if sel == 0 {
		return 0, 0, fmt.Errorf("instruction selection never picked %s", c.Name)
	}
	return m.Cycles, sel, nil
}
