package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mat2c/internal/pdesc"
)

// refKey is a processor's content key as enumeration rendered it
// through reflection: json.Marshal of a deep copy without name and
// description.
func refKey(t *testing.T, p *pdesc.Processor) string {
	t.Helper()
	q := p.Clone()
	q.Name, q.Description = "-", ""
	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// refEnumerate is the reflection-based reference for EnumerateAll and
// CompileGroups: every sweep's points in axis order, deduplicated by
// refKey within the sweep (and cut at its MaxVariants), then across
// sweeps; then the compile groups by refKey with the costs cleared. It
// also checks each variant's name and description against the formats
// enumeration has always used.
func refEnumerate(t *testing.T, sweeps []*Sweep) (names []string, groups [][]int) {
	t.Helper()
	var procs []*pdesc.Processor
	seenAll := map[string]bool{}
	for _, sw := range sweeps {
		baseName := sw.Base
		if baseName == "" {
			baseName = "dspasip"
		}
		base, err := pdesc.Resolve(baseName)
		if err != nil {
			t.Fatal(err)
		}
		bases := []*pdesc.Processor{base}
		if sw.ISX != nil {
			exts, err := isxBases(context.Background(), base, sw.ISX)
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, exts...)
		}
		widths, complexAxis, costSets := sw.Widths, sw.Complex, sw.Costs
		if len(widths) == 0 {
			widths = DefaultWidths
		}
		if len(complexAxis) == 0 {
			complexAxis = []bool{true, false}
		}
		if len(costSets) == 0 {
			costSets = []CostOverride{{}}
		}
		seen := map[string]bool{}
		var out []*pdesc.Processor
	points:
		for _, b := range bases {
			groupSets := sw.Groups
			if len(groupSets) == 0 {
				groupSets = powerSet(groupsOf(b))
			}
			for _, w := range widths {
				for _, cx := range complexAxis {
					for _, gs := range groupSets {
						gr := append([]string(nil), gs...)
						sort.Strings(gr)
						for _, cs := range costSets {
							v, err := makeVariant(b, w, cx, gr, cs)
							if err != nil {
								continue
							}
							lanes, tag := 0, "none"
							if cx {
								lanes = w / 2
							}
							if len(gr) > 0 {
								tag = strings.Join(gr, "+")
							}
							name := fmt.Sprintf("%s-w%d-cl%d-%s", b.Name, w, lanes, tag)
							if cs.Name != "" {
								name += "-" + cs.Name
							}
							desc := fmt.Sprintf("DSE variant of %s (width %d, %d complex lanes, %s)", b.Name, w, lanes, tag)
							if v.Proc.Name != name || v.Proc.Description != desc {
								t.Fatalf("variant %q described %q, want %q described %q", v.Proc.Name, v.Proc.Description, name, desc)
							}
							key := refKey(t, v.Proc)
							if seen[key] {
								continue
							}
							seen[key] = true
							out = append(out, v.Proc)
							if sw.MaxVariants > 0 && len(out) >= sw.MaxVariants {
								break points
							}
						}
					}
				}
			}
		}
		for _, p := range out {
			if key := refKey(t, p); !seenAll[key] {
				seenAll[key] = true
				procs = append(procs, p)
			}
		}
	}
	at := map[string]int{}
	for i, p := range procs {
		names = append(names, p.Name)
		q := p.Clone()
		q.Costs = nil
		key := refKey(t, q)
		g, ok := at[key]
		if !ok {
			g = len(groups)
			at[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return names, groups
}

// TestEnumerationMatchesReference pins enumeration, which renders each
// variant once through pdesc.AppendJSON and keeps the rendering on the
// variant, to the reflection-based reference: the same variant names in
// the same order and the same compile groups.
func TestEnumerationMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sweeps []*Sweep
	}{
		{"default", []*Sweep{{}}},
		{"e2e-seed1", []*Sweep{e2eSweep(1)}},
		{"e2e-seed2", []*Sweep{e2eSweep(2)}},
		{"e2e-seed3", []*Sweep{e2eSweep(3)}},
		{"isx", []*Sweep{{Base: "scalar", Widths: []int{1, 2, 4}, ISX: &ISXSeed{Kernels: []string{"fir"}, Top: 2}}}},
		{"two-bases", []*Sweep{{Base: "dspasip"}, {Base: "wide8", Costs: e2eSweep(2).Costs}}},
		{"max-variants", []*Sweep{{MaxVariants: 50, Costs: e2eSweep(1).Costs}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			variants, _, err := EnumerateAll(context.Background(), tc.sweeps)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, v := range variants {
				names = append(names, v.Proc.Name)
			}
			wantNames, wantGroups := refEnumerate(t, tc.sweeps)
			if !reflect.DeepEqual(names, wantNames) {
				t.Errorf("variants %v,\nwant %v", names, wantNames)
			}
			if groups := CompileGroups(variants); !reflect.DeepEqual(groups, wantGroups) {
				t.Errorf("compile groups %v,\nwant %v", groups, wantGroups)
			}
		})
	}
}

// TestVariantKeyFallback: a variant built outside enumeration, as a
// fleet unit builds one, has no stored content key and computes the
// same one.
func TestVariantKeyFallback(t *testing.T) {
	vs, err := e2eSweep(1).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.key == "" || v.key != refKey(t, v.Proc) {
			t.Fatalf("%s: stored key differs from the reference", v.Proc.Name)
		}
		if built := (&Variant{Proc: v.Proc}); built.contentKey() != v.key {
			t.Fatalf("%s: a built variant's key differs from the stored one", v.Proc.Name)
		}
	}
}
