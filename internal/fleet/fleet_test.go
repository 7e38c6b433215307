package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/dse"
	"mat2c/internal/fleet"
	"mat2c/internal/isx"
)

// executeAcrossWorkers runs units round-robin over nWorkers simulated
// workers, each with a private compilation cache — the same isolation
// real fleet workers have.
func executeAcrossWorkers(t *testing.T, units []fleet.Unit, nWorkers int) []*fleet.UnitResult {
	t.Helper()
	caches := make([]*mat2c.Cache, nWorkers)
	for i := range caches {
		caches[i] = mat2c.NewCache(64)
	}
	results := make([]*fleet.UnitResult, len(units))
	for i := range units {
		res, err := fleet.Execute(context.Background(), &units[i], caches[i%nWorkers])
		if err != nil {
			t.Fatalf("execute unit %s: %v", units[i].ID, err)
		}
		results[i] = res
	}
	return results
}

func reportJSON(t *testing.T, rep interface{}) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedDSEMatchesSingleProcess is the sharding property test:
// for randomized sweep axes, shard sizes, and worker counts, the
// sharded-and-merged report must be byte-for-byte identical to the
// single-process report's identity.
func TestShardedDSEMatchesSingleProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	ctx := context.Background()

	widthAxis := [][]int{{1}, {1, 4}, {1, 2, 4}}
	complexAxis := [][]bool{{false}, {true}, {true, false}}

	for trial := 0; trial < 3; trial++ {
		sweep := &dse.Sweep{
			Base:    "scalar",
			Widths:  widthAxis[rng.Intn(len(widthAxis))],
			Complex: complexAxis[rng.Intn(len(complexAxis))],
		}
		if trial == 2 {
			// One trial over a base with custom-instruction groups, so the
			// group axis crosses the wire too.
			sweep.Base = "dspasip"
			sweep.Groups = [][]string{nil, {"mac", "cmplx"}}
			sweep.Widths = []int{1, 4}
			sweep.Complex = []bool{true}
		}
		unitSize := 1 + rng.Intn(3)
		nWorkers := 2 + rng.Intn(2)
		opts := dse.Options{Jobs: 2, Scale: 0.05, Kernels: []string{"fir", "cfir"}}

		single, err := dse.ExploreContext(ctx, []*dse.Sweep{sweep}, opts)
		if err != nil {
			t.Fatalf("trial %d: single-process explore: %v", trial, err)
		}

		variants, bases, err := dse.EnumerateAll(ctx, []*dse.Sweep{sweep})
		if err != nil {
			t.Fatalf("trial %d: enumerate: %v", trial, err)
		}
		units, err := fleet.ShardDSE(variants, opts, unitSize)
		if err != nil {
			t.Fatalf("trial %d: shard: %v", trial, err)
		}
		if len(units) < 2 && len(variants) > 1 {
			t.Fatalf("trial %d: %d variants sharded into %d units", trial, len(variants), len(units))
		}
		merged, err := fleet.MergeDSE(bases, opts, len(variants), executeAcrossWorkers(t, units, nWorkers))
		if err != nil {
			t.Fatalf("trial %d: merge: %v", trial, err)
		}

		got, want := identity(t, merged), identity(t, single)
		if !bytes.Equal(got, want) {
			t.Errorf("trial %d (base %s, unit size %d, %d workers): sharded report differs\nsharded: %s\nsingle:  %s",
				trial, sweep.Base, unitSize, nWorkers, got, want)
		}
	}
}

// TestShardDSEKeepsCostSiblingsTogether: with a cost axis, every group
// of cost siblings lands whole in one unit whatever the unit size,
// units keep enumeration order, only a single oversized group exceeds
// the size, and the merged report still matches the single-process one.
func TestShardDSEKeepsCostSiblingsTogether(t *testing.T) {
	ctx := context.Background()
	sweep := &dse.Sweep{
		Base:    "dspasip",
		Widths:  []int{1, 4},
		Complex: []bool{true},
		Groups:  [][]string{nil, {"mac"}},
		Costs: []dse.CostOverride{
			{},
			{Name: "cheapload", Costs: map[string]int{"load": 1}},
			{Name: "slowvop", Costs: map[string]int{"vop": 4}},
		},
	}
	opts := dse.Options{Jobs: 2, Scale: 0.05, Kernels: []string{"fir"}}
	variants, bases, err := dse.EnumerateAll(ctx, []*dse.Sweep{sweep})
	if err != nil {
		t.Fatal(err)
	}
	groups := dse.CompileGroups(variants)
	if len(groups) != len(variants)/3 {
		t.Fatalf("%d variants form %d cost-sibling groups, want %d", len(variants), len(groups), len(variants)/3)
	}
	groupOf := map[int]int{}
	for g, members := range groups {
		for _, i := range members {
			groupOf[i] = g
		}
	}
	for size := 1; size <= 7; size++ {
		units, err := fleet.ShardDSE(variants, opts, size)
		if err != nil {
			t.Fatal(err)
		}
		unitOf := map[int]int{} // group -> unit
		next := 0
		for u, unit := range units {
			vs := unit.DSE.Variants
			if len(vs) > size && len(vs) != len(groups[groupOf[vs[0].Index]]) {
				t.Errorf("size %d: unit %d holds %d variants beyond a single group", size, u, len(vs))
			}
			for _, v := range vs {
				if v.Index != next {
					t.Fatalf("size %d: unit %d lists variant %d, want %d (enumeration order)", size, u, v.Index, next)
				}
				next++
				g := groupOf[v.Index]
				if prev, ok := unitOf[g]; ok && prev != u {
					t.Errorf("size %d: cost-sibling group %d straddles units %d and %d", size, g, prev, u)
				}
				unitOf[g] = u
			}
		}
		if next != len(variants) {
			t.Fatalf("size %d: units cover %d of %d variants", size, next, len(variants))
		}
		if size != 4 {
			continue
		}
		single, err := dse.ExploreContext(ctx, []*dse.Sweep{sweep}, opts)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := fleet.MergeDSE(bases, opts, len(variants), executeAcrossWorkers(t, units, 2))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := identity(t, merged), identity(t, single); !bytes.Equal(got, want) {
			t.Errorf("sharded report differs\nsharded: %s\nsingle:  %s", got, want)
		}
	}
}

// TestShardedDSEDuplicateDeliveries exercises the at-least-once edge:
// delivering every unit result twice must merge to the same report
// (first write wins, and every write agrees).
func TestShardedDSEDuplicateDeliveries(t *testing.T) {
	ctx := context.Background()
	sweep := &dse.Sweep{Base: "scalar", Widths: []int{1, 4}, Complex: []bool{false}}
	opts := dse.Options{Jobs: 2, Scale: 0.05, Kernels: []string{"fir"}}

	variants, bases, err := dse.EnumerateAll(ctx, []*dse.Sweep{sweep})
	if err != nil {
		t.Fatal(err)
	}
	units, err := fleet.ShardDSE(variants, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := executeAcrossWorkers(t, units, 2)
	once, err := fleet.MergeDSE(bases, opts, len(variants), results)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := fleet.MergeDSE(bases, opts, len(variants), append(append([]*fleet.UnitResult{}, results...), results...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(identity(t, once), identity(t, twice)) {
		t.Error("duplicate unit deliveries changed the merged report")
	}
}

// TestMergeDSERefusesPartialResults: a missing variant must fail the
// merge, never fabricate a partial report.
func TestMergeDSERefusesPartialResults(t *testing.T) {
	ctx := context.Background()
	sweep := &dse.Sweep{Base: "scalar", Widths: []int{1, 2}, Complex: []bool{false}}
	opts := dse.Options{Jobs: 1, Scale: 0.05, Kernels: []string{"fir"}}

	variants, bases, err := dse.EnumerateAll(ctx, []*dse.Sweep{sweep})
	if err != nil {
		t.Fatal(err)
	}
	units, err := fleet.ShardDSE(variants, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := executeAcrossWorkers(t, units, 1)
	if _, err := fleet.MergeDSE(bases, opts, len(variants), results[:len(results)-1]); err == nil {
		t.Fatal("merge accepted a missing variant")
	}
}

// TestShardedISXMatchesSingleProcess: planning on the coordinator plus
// per-candidate verification units must reproduce isx.MineContext
// byte for byte.
func TestShardedISXMatchesSingleProcess(t *testing.T) {
	ctx := context.Background()
	proc, err := mat2c.LoadProcessor("scalar")
	if err != nil {
		t.Fatal(err)
	}
	opts := isx.Options{Kernels: []string{"fir"}, Top: 2, Scale: 0.05}

	single, err := isx.MineContext(ctx, proc, opts)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := isx.PlanContext(ctx, proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Candidates) == 0 {
		t.Fatal("plan mined no candidates")
	}
	units, err := fleet.ShardISX(plan)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := fleet.MergeISX(plan, executeAcrossWorkers(t, units, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, merged), reportJSON(t, single)) {
		t.Errorf("sharded ISX report differs\nsharded: %s\nsingle:  %s",
			reportJSON(t, merged), reportJSON(t, single))
	}
}

// TestUnitIDsAreContentAddressed: identical work shards to identical
// unit IDs across calls (the idempotency anchor), and distinct work to
// distinct IDs.
func TestUnitIDsAreContentAddressed(t *testing.T) {
	ctx := context.Background()
	sweep := &dse.Sweep{Base: "scalar", Widths: []int{1, 2}, Complex: []bool{false}}
	opts := dse.Options{Scale: 0.05, Kernels: []string{"fir"}}

	variants, _, err := dse.EnumerateAll(ctx, []*dse.Sweep{sweep})
	if err != nil {
		t.Fatal(err)
	}
	a, err := fleet.ShardDSE(variants, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleet.ShardDSE(variants, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Errorf("unit %d: id changed across identical shardings: %s vs %s", i, a[i].ID, b[i].ID)
		}
		if seen[a[i].ID] {
			t.Errorf("unit %d: duplicate id %s for distinct work", i, a[i].ID)
		}
		seen[a[i].ID] = true
	}
}

// TestUnitReplySealed: a unit reply reads back as written, and a reply
// with any byte flipped, or cut short anywhere, is corrupt.
func TestUnitReplySealed(t *testing.T) {
	res := &fleet.UnitResult{ID: "dse-0123", Kind: fleet.KindDSE, DSE: []fleet.DSEVariantResult{
		{Index: 3, Result: dse.VariantResult{Name: "scalar-w4-cl0-none", TotalCycles: 4537}},
	}}
	rec := httptest.NewRecorder()
	if err := fleet.WriteResult(rec, res); err != nil {
		t.Fatal(err)
	}
	wire := rec.Body.Bytes()
	if rec.Header().Get("Content-Length") != strconv.Itoa(len(wire)) {
		t.Errorf("Content-Length %q, want %d", rec.Header().Get("Content-Length"), len(wire))
	}
	back, err := fleet.ReadResult(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Errorf("read back %+v, want %+v", back, res)
	}
	for i := range wire {
		bad := bytes.Clone(wire)
		bad[i] ^= 0x20
		if _, err := fleet.ReadResult(bytes.NewReader(bad)); !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("byte %d flipped: got %v, want ErrCorrupt", i, err)
		}
		if _, err := fleet.ReadResult(bytes.NewReader(wire[:i])); !errors.Is(err, artifact.ErrCorrupt) {
			t.Fatalf("cut to %d bytes: got %v, want ErrCorrupt", i, err)
		}
	}
}
