package dse

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	mat2c "mat2c"
)

func TestEnumerateDefaultSweep(t *testing.T) {
	sw := &Sweep{}
	vs, err := sw.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) < 24 {
		t.Fatalf("default sweep enumerates %d variants, want >= 24", len(vs))
	}
	// Deduplicated: no two variants may describe the same machine.
	seen := map[string]string{}
	names := map[string]bool{}
	for _, v := range vs {
		key := string(appendContentKey(nil, v.Proc))
		if prev, dup := seen[key]; dup {
			t.Errorf("variants %s and %s describe the same machine", prev, v.Proc.Name)
		}
		seen[key] = v.Proc.Name
		if names[v.Proc.Name] {
			t.Errorf("duplicate variant name %s", v.Proc.Name)
		}
		names[v.Proc.Name] = true
		// Every variant passed Validate inside Derive; spot-check the
		// invariants the pruning is responsible for.
		if v.Proc.SIMDWidth < 2 {
			for _, in := range v.Proc.Instructions {
				if strings.HasPrefix(in.Name, "v") {
					t.Errorf("%s: vector instruction %s on scalar variant", v.Proc.Name, in.Name)
				}
			}
		}
	}
	// Deterministic order.
	vs2, err := sw.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(vs2) {
		t.Fatalf("enumeration not deterministic: %d vs %d variants", len(vs), len(vs2))
	}
	for i := range vs {
		if vs[i].Proc.Name != vs2[i].Proc.Name {
			t.Fatalf("enumeration order changed at %d: %s vs %s", i, vs[i].Proc.Name, vs2[i].Proc.Name)
		}
	}
}

func TestEnumerateRewritesVectorIntrinsicNames(t *testing.T) {
	sw := &Sweep{Widths: []int{8}, Complex: []bool{true}, Groups: [][]string{{"mac", "cmplx"}}}
	vs, err := sw.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("got %d variants, want 1", len(vs))
	}
	p := vs[0].Proc
	if in := p.Instr("vfma"); in == nil || in.CName != "_asip_vfma8" {
		t.Errorf("vfma intrinsic not re-widened: %+v", in)
	}
	if in := p.Instr("vcmul"); in == nil || in.CName != "_asip_vcmul4" {
		t.Errorf("vcmul intrinsic not re-widened: %+v", in)
	}
	if in := p.Instr("fma"); in == nil || in.CName != "_asip_fma" {
		t.Errorf("scalar intrinsic name changed: %+v", in)
	}
}

func TestEnumerateCostOverrides(t *testing.T) {
	sw := &Sweep{
		Widths:  []int{4},
		Complex: []bool{true},
		Groups:  [][]string{{"mac", "cmplx", "sad", "stride"}},
		Costs: []CostOverride{
			{},
			{Name: "slowmem", Costs: map[string]int{"load": 8, "store": 8}},
		},
	}
	vs, err := sw.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d variants, want 2", len(vs))
	}
	if vs[1].Proc.Cost("load") != 8 {
		t.Errorf("cost override not applied: load=%d", vs[1].Proc.Cost("load"))
	}
	if vs[0].Proc.Cost("load") == 8 {
		t.Error("cost override leaked into the base-cost variant")
	}
	// Unknown cost classes must fail enumeration.
	bad := &Sweep{Widths: []int{4}, Complex: []bool{true},
		Groups: [][]string{{"mac"}},
		Costs:  []CostOverride{{Name: "bad", Costs: map[string]int{"nosuch": 1}}}}
	if _, err := bad.Enumerate(); err == nil {
		t.Error("enumeration accepted an unknown cost class")
	}
}

// TestSweepRejectsBadCostOverrides: a cost override naming an unknown
// class or a non-positive cost fails both ParseSweep and Enumerate with
// an error naming the override, instead of its variants being pruned
// while the rest of the sweep runs.
func TestSweepRejectsBadCostOverrides(t *testing.T) {
	bad := []struct {
		spec, want string
	}{
		{`{"widths":[4],"costs":[{"name":"base","costs":{}},{"name":"typo","costs":{"mul":7}}]}`,
			`cost override "typo": unknown cost class "mul"`},
		{`{"widths":[4],"costs":[{"name":"free","costs":{"load":0}}]}`,
			`cost override "free": cost class "load" has non-positive cost 0`},
		{`{"widths":[4],"costs":[{"name":"neg","costs":{"fmul":2,"branch":-3}}]}`,
			`cost override "neg": cost class "branch" has non-positive cost -3`},
	}
	for _, tc := range bad {
		if _, err := ParseSweep([]byte(tc.spec)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSweep(%s) = %v, want an error containing %q", tc.spec, err, tc.want)
		}
		var sw Sweep
		if err := json.Unmarshal([]byte(tc.spec), &sw); err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Enumerate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Enumerate(%s) = %v, want an error containing %q", tc.spec, err, tc.want)
		}
	}

	// Machine conflicts are still pruned, not errors: complex lanes on a
	// width-1 datapath collapse into the no-complex variant.
	sw, err := ParseSweep([]byte(`{"widths":[1],"complex":[true,false],"groups":[[]],"costs":[{"name":"slow","costs":{"load":8}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := sw.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].CostSet != "slow" {
		t.Errorf("got %d variants, want the one width-1 slow-memory machine", len(vs))
	}
}

func TestParseSweepRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSweep([]byte(`{"widhts": [1, 2]}`)); err == nil {
		t.Error("ParseSweep accepted a misspelled axis name")
	}
	sw, err := ParseSweep([]byte(`{"base": "dspasip", "widths": [2, 4], "max_variants": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if sw.MaxVariants != 3 || len(sw.Widths) != 2 {
		t.Errorf("sweep not decoded: %+v", sw)
	}
}

// smokeSweep is the acceptance-criteria sweep: >= 24 variants covering
// scalar-equivalent through wide-SIMD-with-complex-ISA machines.
func smokeSweep() *Sweep {
	return &Sweep{
		Base:    "dspasip",
		Widths:  []int{1, 2, 4, 8, 16},
		Complex: []bool{true, false},
		Groups: [][]string{
			nil,
			{"mac"},
			{"cmplx"},
			{"mac", "cmplx"},
			{"mac", "cmplx", "sad", "stride"},
		},
	}
}

// TestSmokeSweep is the PR's acceptance run: a >= 24 variant sweep over
// the FIR and complex-FIR (QAM matched-filter) kernels completes, emits
// a JSON Pareto frontier, ranks a wide-SIMD+complex variant ahead of
// the scalar-equivalent variant, and reports cache hits on the second
// identical sweep.
func TestSmokeSweep(t *testing.T) {
	cache := mat2c.NewCache(1024)
	opts := Options{Jobs: 4, Scale: 0.1, Kernels: []string{"fir", "cfir"}, Cache: cache}
	rep, err := ExploreSweep(smokeSweep(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Variants) < 24 {
		t.Fatalf("smoke sweep evaluated %d variants, want >= 24", len(rep.Variants))
	}
	for _, v := range rep.Variants {
		if v.Error != "" {
			t.Fatalf("variant %s failed: %s", v.Name, v.Error)
		}
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}

	// The JSON report round-trips.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(buf.Bytes())
	if err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Error("report changed across a JSON round-trip")
	}

	// Paper direction: a wide-SIMD machine with the complex ISA beats
	// the scalar-equivalent machine on both kernels.
	find := func(pred func(*VariantResult) bool) *VariantResult {
		for i := range rep.Variants {
			if pred(&rep.Variants[i]) {
				return &rep.Variants[i]
			}
		}
		return nil
	}
	hasGroup := func(v *VariantResult, g string) bool {
		for _, x := range v.Groups {
			if x == g {
				return true
			}
		}
		return false
	}
	wide := find(func(v *VariantResult) bool {
		return v.SIMDWidth >= 8 && v.ComplexLanes >= 4 && hasGroup(v, "cmplx") && hasGroup(v, "mac")
	})
	scalar := find(func(v *VariantResult) bool {
		return v.SIMDWidth == 1 && len(v.Groups) == 0
	})
	if wide == nil || scalar == nil {
		t.Fatalf("sweep missing anchor variants (wide=%v scalar=%v)", wide, scalar)
	}
	for _, k := range []string{"fir", "cfir"} {
		if wide.KernelCycles[k] >= scalar.KernelCycles[k] {
			t.Errorf("%s: wide variant %s (%d cycles) not faster than scalar %s (%d cycles)",
				k, wide.Name, wide.KernelCycles[k], scalar.Name, scalar.KernelCycles[k])
		}
	}
	if wide.TotalCycles >= scalar.TotalCycles {
		t.Errorf("wide variant not ranked ahead of scalar: %d vs %d cycles",
			wide.TotalCycles, scalar.TotalCycles)
	}

	// The frontier keeps the cheapest-ISA end of the trade-off: some
	// minimum-ISA-cost variant must survive even though it is slow.
	// (The width-1 machine itself may be dominated by a wider machine
	// with the same empty custom ISA.)
	minCost := rep.Variants[0].ISACost
	for i := range rep.Variants {
		if rep.Variants[i].ISACost < minCost {
			minCost = rep.Variants[i].ISACost
		}
	}
	cheapOnFrontier := false
	for i := range rep.Variants {
		if rep.Variants[i].Pareto && rep.Variants[i].ISACost == minCost {
			cheapOnFrontier = true
		}
	}
	if !cheapOnFrontier {
		t.Errorf("no minimum-ISA-cost (%d) variant on the frontier", minCost)
	}

	// Second identical sweep through the same cache: every compile hits.
	rep2, err := ExploreSweep(smokeSweep(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits == 0 {
		t.Error("second identical sweep reported no cache hits")
	}
	if rep2.CacheHits != rep2.CacheLookups {
		t.Errorf("second sweep: %d/%d lookups hit, want all", rep2.CacheHits, rep2.CacheLookups)
	}
	// Identical sweeps must agree on scores (cycle model is
	// deterministic and cached results are shared).
	if rep2.Frontier[0] != rep.Frontier[0] {
		t.Errorf("frontier changed across identical sweeps: %s vs %s", rep.Frontier[0], rep2.Frontier[0])
	}
}

func TestExploreRejectsUnknownKernel(t *testing.T) {
	_, err := ExploreSweep(&Sweep{Widths: []int{1}, Complex: []bool{false}, Groups: [][]string{nil}},
		Options{Kernels: []string{"nosuch"}})
	if err == nil {
		t.Error("Explore accepted an unknown kernel name")
	}
}

func TestReportTextAndCSV(t *testing.T) {
	rep, err := ExploreSweep(&Sweep{
		Widths: []int{1, 4}, Complex: []bool{true},
		Groups: [][]string{nil, {"mac", "cmplx"}},
	}, Options{Jobs: 2, Scale: 0.05, Kernels: []string{"fir"}})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Text()
	for _, want := range []string{"Pareto frontier", "variant", "cycles"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
	csv := rep.CSV()
	if !strings.HasPrefix(csv, "variant,simd_width,") {
		t.Errorf("csv header malformed:\n%s", csv)
	}
	if !strings.Contains(csv, ",cycles_fir") {
		t.Errorf("csv missing kernel column:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(rep.Variants) {
		t.Errorf("csv has %d lines, want %d", len(lines), 1+len(rep.Variants))
	}
}

// TestReportSchemaRoundTrip pins the asipdse -json format: a report
// decodes into the typed struct with no unknown fields and re-encodes
// to the same document, so downstream tooling can rely on it.
func TestReportSchemaRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round trip changed the report:\nbefore %+v\nafter  %+v", rep, back)
	}
	// Every struct field reaches the document (no silently dropped
	// fields): encode and check the raw keys.
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"base", "scale", "jobs", "kernels", "variants", "frontier",
		"cache_lookups", "cache_hits", "elapsed_us"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report JSON missing key %q", key)
		}
	}
	variant := doc["variants"].([]interface{})[0].(map[string]interface{})
	for _, key := range []string{"name", "simd_width", "complex_lanes", "groups", "cost_set",
		"instructions", "isa_cost", "total_cycles", "kernel_cycles", "code_size",
		"cache_lookups", "cache_hits", "pareto"} {
		if _, ok := variant[key]; !ok {
			t.Errorf("variant JSON missing key %q", key)
		}
	}
}

// sampleReport is a one-variant report with every field set.
func sampleReport() *Report {
	return &Report{
		Base: "dspasip", Scale: 0.25, Jobs: 2,
		Kernels: []string{"fir"},
		Variants: []VariantResult{{
			Name: "dspasip-w4-cl2-mac", SIMDWidth: 4, ComplexLanes: 2,
			Groups: []string{"mac"}, CostSet: "slowmem",
			Instructions: 2, ISACost: 4, TotalCycles: 1234,
			KernelCycles: map[string]int64{"fir": 1234},
			CodeSize:     56, CacheLookups: 1, CacheHits: 1, Pareto: true,
		}},
		Frontier:     []string{"dspasip-w4-cl2-mac"},
		CacheLookups: 1, CacheHits: 1, ElapsedUS: 99,
	}
}

// TestReportIdentity: two reports that differ only in wall time and
// cache counters, at the top or in a variant, share an identity, which
// zeroes those fields and leaves the report as it was; a report that
// differs in anything else does not.
func TestReportIdentity(t *testing.T) {
	identity := func(r *Report) string {
		t.Helper()
		id, err := r.Identity()
		if err != nil {
			t.Fatal(err)
		}
		return string(id)
	}
	rep := sampleReport()
	want := identity(rep)
	if !reflect.DeepEqual(rep, sampleReport()) {
		t.Fatal("Identity modified the report")
	}
	zeroed := sampleReport()
	zeroed.ElapsedUS, zeroed.CacheLookups, zeroed.CacheHits = 0, 0, 0
	zeroed.Variants[0].CacheLookups, zeroed.Variants[0].CacheHits = 0, 0
	var buf bytes.Buffer
	if err := zeroed.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if want != buf.String() {
		t.Errorf("identity is not the report with its run fields zeroed:\n%s\nwant\n%s", want, buf.String())
	}
	run := sampleReport()
	run.ElapsedUS, run.CacheLookups, run.CacheHits = 7, 6, 0
	run.Variants[0].CacheLookups, run.Variants[0].CacheHits = 6, 0
	if got := identity(run); got != want {
		t.Errorf("another run's identity differs:\n%s\nwant\n%s", got, want)
	}
	other := sampleReport()
	other.Variants[0].TotalCycles++
	if identity(other) == want {
		t.Error("a report with other cycles has the same identity")
	}
}

func TestEnumerateISXSeed(t *testing.T) {
	sw := &Sweep{
		Base:    "scalar",
		Widths:  []int{1},
		Complex: []bool{false},
		ISX:     &ISXSeed{Kernels: []string{"fir"}, Top: 2},
	}
	vs, err := sw.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	seeded := 0
	for _, v := range vs {
		if v.Proc.HasInstr("isx0") {
			seeded++
			for _, g := range v.Groups {
				if g == "isx" {
					goto grouped
				}
			}
			t.Errorf("variant %s carries isx0 but not the isx group (%v)", v.Proc.Name, v.Groups)
		grouped:
		}
	}
	if seeded == 0 {
		t.Fatalf("no seeded variant carries a mined instruction; got %d variants", len(vs))
	}
}

// An ISX-seeded sweep of a plain scalar machine must put a mined
// variant on the Pareto frontier ahead of the bare base: the mined
// instructions trade a little ISA cost for measured cycles.
func TestExploreISXSeedImproves(t *testing.T) {
	sw := &Sweep{
		Base:    "scalar",
		Widths:  []int{1},
		Complex: []bool{false},
		ISX:     &ISXSeed{Kernels: []string{"cfir"}, Top: 1, Scale: 0.1},
	}
	rep, err := ExploreSweep(sw, Options{Jobs: 2, Scale: 0.1, Kernels: []string{"cfir"}})
	if err != nil {
		t.Fatal(err)
	}
	var base, mined *VariantResult
	for i := range rep.Variants {
		v := &rep.Variants[i]
		if v.Error != "" {
			t.Fatalf("variant %s failed: %s", v.Name, v.Error)
		}
		if v.Instructions == 0 {
			base = v
		} else if strings.Contains(v.Name, "isx") && (mined == nil || v.TotalCycles < mined.TotalCycles) {
			mined = v
		}
	}
	if base == nil || mined == nil {
		t.Fatalf("missing base or mined variant in %d results", len(rep.Variants))
	}
	if mined.TotalCycles >= base.TotalCycles {
		t.Errorf("mined variant %s (%d cycles) does not beat base (%d cycles)",
			mined.Name, mined.TotalCycles, base.TotalCycles)
	}
}
