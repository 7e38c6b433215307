// Package isx mines instruction-set extensions from execution profiles.
//
// The paper's flow designs an ASIP by hand-picking custom instructions
// (complex arithmetic, multiply-accumulate) and measuring the result.
// This package automates the discovery step: it compiles a set of
// kernels for a base processor, profiles the virtual machine to learn
// how often every instruction-level expression actually executes, and
// enumerates recurring dataflow subtrees as candidate fused
// instructions. Candidates are scored by estimated cycle savings
// (dynamic count times the gap between the expanded cost of the subtree
// and the issue cost of a fused datapath), an area proxy for the fused
// functional unit, and a merit function (savings per unit area).
// Winners are synthesized into pdesc.Instr entries whose Semantics
// pattern lets instruction selection, both VM engines, and the C
// emitter handle them with no further per-instruction code, and each
// winner is verified end-to-end: the kernel is recompiled against a
// derived processor carrying the candidate, re-simulated, and the
// measured cycle delta is reported next to the estimate.
package isx

import (
	"context"
	"fmt"
	"sort"

	"mat2c/internal/bench"
	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// Options configures a mining run. The zero value picks sensible
// defaults (all kernels, 4-node patterns, top 8 candidates, quarter
// scale, verification on).
type Options struct {
	// Kernels names the benchmark kernels to profile; empty means all.
	Kernels []string
	// MaxNodes bounds the operation nodes per candidate pattern (1..6;
	// default 4). The enumeration is exponential in this bound.
	MaxNodes int
	// Top bounds how many candidates are kept after ranking (default 8).
	Top int
	// Scale sizes the profiled problem relative to each kernel's default
	// size (default 0.25); see bench.SizeFor.
	Scale float64
	// NoVerify skips the per-candidate recompile-and-measure step and
	// reports estimates only.
	NoVerify bool
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 4
	}
	if o.MaxNodes > 6 {
		o.MaxNodes = 6
	}
	if o.Top <= 0 {
		o.Top = 8
	}
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	return o
}

// Candidate is one mined instruction-set extension.
type Candidate struct {
	// Name is the scalar instruction name (isxN); the vector form, when
	// observed, is vName.
	Name string `json:"name"`
	// Semantics is the ir pattern defining the instruction.
	Semantics string `json:"semantics"`
	// OpNodes and Arity describe the pattern shape.
	OpNodes int `json:"op_nodes"`
	Arity   int `json:"arity"`
	// ScalarExpanded is the cycle cost of the pattern's operations
	// issued individually on the base datapath (one lane).
	ScalarExpanded int64 `json:"scalar_expanded_cycles"`
	// ScalarCycles is the synthesized issue cost of the fused scalar
	// instruction; VectorCycles of the vector form (0 when none).
	ScalarCycles int  `json:"scalar_cycles"`
	VectorCycles int  `json:"vector_cycles,omitempty"`
	HasVector    bool `json:"has_vector"`
	// Area is a relative datapath-area proxy for the fused unit.
	Area float64 `json:"area"`
	// DynCount is the dynamic execution count of all matched sites.
	DynCount int64 `json:"dyn_count"`
	// EstSavings is the profile-weighted estimated cycle saving across
	// all profiled kernels; Merit is EstSavings/(Area+1).
	EstSavings int64   `json:"est_savings"`
	Merit      float64 `json:"merit"`
	// Kernels lists the kernels the pattern was observed in.
	Kernels []string `json:"kernels"`
	// Deltas holds the per-kernel measured verification results (empty
	// when verification was skipped).
	Deltas []KernelDelta `json:"verification,omitempty"`

	// EstByKernel breaks the estimated savings out per kernel. It is
	// exported (and on the wire) so sharded verification can run on a
	// remote fleet worker that never saw the profiling pass.
	EstByKernel map[string]int64 `json:"est_by_kernel,omitempty"`

	pat *ir.Pattern
}

// Instrs returns the processor-description entries implementing c: the
// scalar instruction and, when the pattern was observed in vector form,
// the v-prefixed vector instruction.
func (c *Candidate) Instrs() []pdesc.Instr {
	out := []pdesc.Instr{{
		Name:      c.Name,
		CName:     "_asip_" + c.Name,
		Cycles:    c.ScalarCycles,
		Semantics: c.Semantics,
	}}
	if c.HasVector {
		out = append(out, pdesc.Instr{
			Name:      "v" + c.Name,
			CName:     "_asip_v" + c.Name,
			Cycles:    c.VectorCycles,
			Semantics: c.Semantics,
		})
	}
	return out
}

// KernelDelta is the measured effect of one candidate on one kernel.
type KernelDelta struct {
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	// BaseCycles is the profiled base run; NewCycles the run on the
	// derived processor carrying the candidate.
	BaseCycles int64 `json:"base_cycles"`
	NewCycles  int64 `json:"new_cycles"`
	// Measured and Estimated are the cycle savings (base minus new, and
	// the profile-weighted estimate for this kernel).
	Measured  int64   `json:"measured_savings"`
	Estimated int64   `json:"estimated_savings"`
	Speedup   float64 `json:"speedup"`
	// Selected counts how many sites instruction selection rewrote to
	// the candidate (scalar plus vector form).
	Selected int `json:"selected"`
	// Err records a verification failure (compile error or output
	// mismatch); the other measured fields are zero then.
	Err string `json:"error,omitempty"`
}

// Report is the result of a mining run.
type Report struct {
	Processor  string       `json:"processor"`
	Kernels    []string     `json:"kernels"`
	MaxNodes   int          `json:"max_nodes"`
	Candidates []*Candidate `json:"candidates"`
}

// Mine is MineContext with a background context.
func Mine(proc *pdesc.Processor, opts Options) (*Report, error) {
	return MineContext(context.Background(), proc, opts)
}

// MineContext profiles the kernels on proc, enumerates and ranks
// candidate instruction-set extensions, and (unless disabled) verifies
// each winner by recompiling and re-simulating on a derived processor.
func MineContext(ctx context.Context, proc *pdesc.Processor, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	plan, err := PlanContext(ctx, proc, opts)
	if err != nil {
		return nil, err
	}
	if !opts.NoVerify {
		for _, c := range plan.Candidates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c.Deltas = VerifyCandidate(ctx, proc, c, plan.Profiles)
		}
	}
	return plan.Report(), nil
}

// Plan is a prepared mining run: the ranked candidates plus the
// per-kernel profile summaries verification needs. It is the shard
// point for fleet execution — a coordinator plans locally, dispatches
// one verification unit per candidate to workers (each running
// VerifyCandidate), attaches the returned deltas, and assembles the
// same Report a single-process MineContext would have produced.
type Plan struct {
	Proc       *pdesc.Processor
	Kernels    []string
	MaxNodes   int
	Candidates []*Candidate
	Profiles   []ProfileSummary
}

// PlanContext runs the profiling, enumeration, and ranking phases of a
// mine without verifying the winners.
func PlanContext(ctx context.Context, proc *pdesc.Processor, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	kernels, err := bench.SelectKernels(opts.Kernels)
	if err != nil {
		return nil, err
	}
	agg := map[string]*Candidate{}
	summaries := make([]ProfileSummary, 0, len(kernels))
	for _, k := range kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pr, err := profileKernel(ctx, proc, k, opts.Scale)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", k.Name, err)
		}
		summaries = append(summaries, ProfileSummary{
			Kernel: k.Name, N: pr.n, BaseCycles: pr.base,
		})
		mineProfile(proc, pr, opts.MaxNodes, agg)
	}
	cands := rank(agg, opts.Top)
	assignNames(proc, cands)
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.Name
	}
	return &Plan{
		Proc:       proc,
		Kernels:    names,
		MaxNodes:   opts.MaxNodes,
		Candidates: cands,
		Profiles:   summaries,
	}, nil
}

// Report assembles the final mining report from the (possibly remotely)
// verified candidates.
func (p *Plan) Report() *Report {
	return &Report{
		Processor:  p.Proc.Name,
		Kernels:    p.Kernels,
		MaxNodes:   p.MaxNodes,
		Candidates: p.Candidates,
	}
}

// Extend derives a variant of proc named name that additionally
// provides the given candidates.
func Extend(proc *pdesc.Processor, name string, cands ...*Candidate) (*pdesc.Processor, error) {
	return proc.Derive(name, func(q *pdesc.Processor) {
		for _, c := range cands {
			q.Instructions = append(q.Instructions, c.Instrs()...)
		}
	})
}

// rank computes merit, sorts best-first (ties broken by semantics text
// for determinism), and keeps the top entries.
func rank(agg map[string]*Candidate, top int) []*Candidate {
	cands := make([]*Candidate, 0, len(agg))
	for _, c := range agg {
		c.Merit = float64(c.EstSavings) / (c.Area + 1)
		for k := range c.EstByKernel {
			c.Kernels = append(c.Kernels, k)
		}
		sort.Strings(c.Kernels)
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Merit != cands[j].Merit {
			return cands[i].Merit > cands[j].Merit
		}
		return cands[i].Semantics < cands[j].Semantics
	})
	if len(cands) > top {
		cands = cands[:top]
	}
	return cands
}

// assignNames numbers candidates isx0, isx1, ... in merit order,
// skipping names the base processor already uses.
func assignNames(proc *pdesc.Processor, cands []*Candidate) {
	i := 0
	for _, c := range cands {
		for {
			name := fmt.Sprintf("isx%d", i)
			i++
			if !proc.HasInstr(name) && !proc.HasInstr("v"+name) {
				c.Name = name
				break
			}
		}
	}
}
