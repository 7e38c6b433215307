// Sharding and merging: how a DSE sweep or an ISX mine becomes work
// units, and how per-shard partial results become the single report.
// Both directions reuse the single-process entry points
// (dse.EvalVariantsContext / dse.Assemble, isx.VerifyCandidate /
// isx.Plan.Report), so the merged output is byte-identical to
// unsharded execution by construction.
package fleet

import (
	"context"
	"fmt"

	mat2c "mat2c"
	"mat2c/internal/dse"
	"mat2c/internal/isx"
	"mat2c/internal/pdesc"
)

// ShardDSE partitions enumerated variants into units of at most size
// variants each, cutting only between dse.CompileGroups: cost siblings
// share one compile per kernel only when one worker evaluates them, so
// a group larger than size stays whole in a unit of its own. Units
// list the groups' variants in group order, which is enumeration order
// within and across units whenever groups are contiguous runs (as one
// sweep's always are).
func ShardDSE(variants []*dse.Variant, opts dse.Options, size int) ([]Unit, error) {
	if size <= 0 {
		size = 4
	}
	var cuts [][]int
	for _, group := range dse.CompileGroups(variants) {
		if n := len(cuts); n > 0 && len(cuts[n-1])+len(group) <= size {
			cuts[n-1] = append(cuts[n-1], group...)
		} else {
			cuts = append(cuts, append([]int(nil), group...))
		}
	}
	var units []Unit
	for _, cut := range cuts {
		du := &DSEUnit{Scale: opts.Scale, Kernels: opts.Kernels, EmitC: opts.EmitC}
		for _, i := range cut {
			v := variants[i]
			du.Variants = append(du.Variants, DSEVariant{
				Index:   i,
				Proc:    v.Proc.AppendJSON(nil),
				Groups:  v.Groups,
				CostSet: v.CostSet,
			})
		}
		id, err := unitID(KindDSE, du)
		if err != nil {
			return nil, err
		}
		units = append(units, Unit{ID: id, Kind: KindDSE, DSE: du})
	}
	return units, nil
}

// MergeDSE places per-unit results back into enumeration order and
// assembles the report exactly as dse.ExploreContext would. Duplicate
// deliveries (at-least-once dispatch) merge first-write-wins — every
// delivery of a unit carries identical results, so the choice is
// immaterial. A missing variant is an error: the merge refuses to
// fabricate a partial report.
func MergeDSE(bases []string, opts dse.Options, total int, results []*UnitResult) (*dse.Report, error) {
	merged := make([]dse.VariantResult, total)
	got := make([]bool, total)
	for _, ur := range results {
		if ur == nil || ur.Kind != KindDSE {
			continue
		}
		for _, vr := range ur.DSE {
			if vr.Index < 0 || vr.Index >= total {
				return nil, fmt.Errorf("fleet: merge: variant index %d out of range [0,%d)", vr.Index, total)
			}
			if got[vr.Index] {
				continue
			}
			got[vr.Index] = true
			merged[vr.Index] = vr.Result
		}
	}
	for i, ok := range got {
		if !ok {
			return nil, fmt.Errorf("fleet: merge: variant %d of %d never completed", i, total)
		}
	}
	return dse.Assemble(bases, opts, merged)
}

// ShardISX builds one verification unit per planned candidate.
func ShardISX(plan *isx.Plan) ([]Unit, error) {
	procJSON := plan.Proc.AppendJSON(nil)
	var units []Unit
	for i, c := range plan.Candidates {
		iu := &ISXUnit{Index: i, Proc: procJSON, Candidate: c, Profiles: plan.Profiles}
		id, err := unitID(KindISX, iu)
		if err != nil {
			return nil, err
		}
		units = append(units, Unit{ID: id, Kind: KindISX, ISX: iu})
	}
	return units, nil
}

// MergeISX attaches the verification deltas to the planned candidates
// (first write wins, as with MergeDSE) and assembles the report.
func MergeISX(plan *isx.Plan, results []*UnitResult) (*isx.Report, error) {
	got := make([]bool, len(plan.Candidates))
	for _, ur := range results {
		if ur == nil || ur.Kind != KindISX || ur.ISX == nil {
			continue
		}
		i := ur.ISX.Index
		if i < 0 || i >= len(plan.Candidates) {
			return nil, fmt.Errorf("fleet: merge: candidate index %d out of range [0,%d)", i, len(plan.Candidates))
		}
		if got[i] {
			continue
		}
		got[i] = true
		plan.Candidates[i].Deltas = ur.ISX.Deltas
	}
	for i, ok := range got {
		if !ok {
			return nil, fmt.Errorf("fleet: merge: candidate %d of %d never verified", i, len(plan.Candidates))
		}
	}
	return plan.Report(), nil
}

// Execute runs one unit locally — the worker side of the protocol.
// Variant evaluation flows through cache (the worker's shared
// compilation cache), which is what makes at-least-once re-dispatch
// cheap: a re-executed unit hits the content-addressed keys its first
// execution populated. A DSE unit reads ahead what its lookups will ask
// the cache's remote tier for in a couple of batch reads
// (dse.EvalVariantsContext).
func Execute(ctx context.Context, u *Unit, cache *mat2c.Cache) (*UnitResult, error) {
	switch u.Kind {
	case KindDSE:
		if u.DSE == nil {
			return nil, fmt.Errorf("fleet: %s unit without a dse payload", u.ID)
		}
		opts := dse.Options{
			Jobs:    1, // parallelism comes from units in flight, not within a unit
			Scale:   u.DSE.Scale,
			Kernels: u.DSE.Kernels,
			EmitC:   u.DSE.EmitC,
			Cache:   cache,
		}
		vs := make([]*dse.Variant, len(u.DSE.Variants))
		for i, wv := range u.DSE.Variants {
			proc, err := pdesc.Parse(wv.Proc)
			if err != nil {
				return nil, fmt.Errorf("fleet: unit %s variant %d: %w", u.ID, wv.Index, err)
			}
			vs[i] = &dse.Variant{Proc: proc, Groups: wv.Groups, CostSet: wv.CostSet}
		}
		vrs, err := dse.EvalVariantsContext(ctx, vs, opts)
		if err != nil {
			return nil, fmt.Errorf("fleet: unit %s: %w", u.ID, err)
		}
		res := &UnitResult{ID: u.ID, Kind: KindDSE}
		for i, vr := range vrs {
			res.DSE = append(res.DSE, DSEVariantResult{Index: u.DSE.Variants[i].Index, Result: vr})
		}
		return res, nil
	case KindISX:
		if u.ISX == nil || u.ISX.Candidate == nil {
			return nil, fmt.Errorf("fleet: %s unit without an isx payload", u.ID)
		}
		proc, err := pdesc.Parse(u.ISX.Proc)
		if err != nil {
			return nil, fmt.Errorf("fleet: unit %s: %w", u.ID, err)
		}
		deltas := isx.VerifyCandidate(ctx, proc, u.ISX.Candidate, u.ISX.Profiles)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &UnitResult{
			ID:   u.ID,
			Kind: KindISX,
			ISX:  &ISXUnitResult{Index: u.ISX.Index, Deltas: deltas},
		}, nil
	default:
		return nil, fmt.Errorf("fleet: unknown unit kind %q", u.Kind)
	}
}
