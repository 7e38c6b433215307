package pdesc

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mat2c/procs"
)

func TestBuiltinCatalog(t *testing.T) {
	for _, name := range BuiltinNames() {
		p := Builtin(name)
		if p == nil {
			t.Fatalf("builtin %q missing", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("builtin %q has Name %q", name, p.Name)
		}
	}
	if Builtin("bogus") != nil {
		t.Error("unknown builtin should be nil")
	}
}

func TestDSPASIPShape(t *testing.T) {
	p := Builtin("dspasip")
	if p.SIMDWidth != 4 || p.ComplexLanes != 2 {
		t.Errorf("dspasip lanes %d/%d", p.SIMDWidth, p.ComplexLanes)
	}
	for _, in := range []string{"fma", "cmul", "cmac", "cconjmul", "vfma", "vcmac"} {
		if !p.HasInstr(in) {
			t.Errorf("dspasip missing %s", in)
		}
	}
	if p.Lanes(false) != 4 || p.Lanes(true) != 2 {
		t.Error("Lanes accessor wrong")
	}
}

func TestScalarBaselineHasNothing(t *testing.T) {
	p := Builtin("scalar")
	if p.SIMDWidth != 1 || len(p.Instructions) != 0 {
		t.Error("scalar target must have no SIMD and no custom instructions")
	}
	if p.HasInstr("cmul") {
		t.Error("scalar target should not have cmul")
	}
}

func TestCustomInstructionCostBeatsExpansion(t *testing.T) {
	// The whole premise of the paper: a custom complex multiply must be
	// cheaper than its real-arithmetic expansion on the baseline.
	asip := Builtin("dspasip")
	scalar := Builtin("scalar")
	if asip.Instr("cmul").Cycles >= scalar.Cost("cmul") {
		t.Errorf("asip cmul (%d cycles) not cheaper than expansion (%d)",
			asip.Instr("cmul").Cycles, scalar.Cost("cmul"))
	}
	if asip.Instr("cmac").Cycles >= scalar.Cost("cmul")+scalar.Cost("cadd") {
		t.Error("asip cmac not cheaper than cmul+cadd expansion")
	}
}

func TestCostFallback(t *testing.T) {
	p := Builtin("scalar")
	if p.Cost("fadd") != 1 {
		t.Errorf("fadd = %d", p.Cost("fadd"))
	}
	if p.Cost("nonexistent-class") != 1 {
		t.Error("unknown class should cost 1")
	}
	asip := Builtin("dspasip")
	if asip.Cost("cload") != 2 {
		t.Errorf("asip cload = %d, want override 2", asip.Cost("cload"))
	}
	if Builtin("scalar").Cost("cload") != 4 {
		t.Errorf("scalar cload = %d, want default 4", Builtin("scalar").Cost("cload"))
	}
}

func TestValidateRejectsBadDescriptions(t *testing.T) {
	cases := []struct {
		p    Processor
		want string
	}{
		{Processor{SIMDWidth: 1}, "missing name"},
		{Processor{Name: "x", SIMDWidth: 0}, "simd_width"},
		{Processor{Name: "x", SIMDWidth: 2, ComplexLanes: 3}, "complex_lanes"},
		{Processor{Name: "x", SIMDWidth: 1, Instructions: []Instr{{Name: "fma", CName: "f", Cycles: 0}}}, "cycle cost"},
		{Processor{Name: "x", SIMDWidth: 1, Instructions: []Instr{{Name: "vfma", CName: "f", Cycles: 1}}}, "vector instruction"},
		{Processor{Name: "x", SIMDWidth: 1, Instructions: []Instr{
			{Name: "fma", CName: "f", Cycles: 1}, {Name: "fma", CName: "g", Cycles: 1}}}, "duplicate"},
		{Processor{Name: "x", SIMDWidth: 1, Costs: map[string]int{"bogus": 3}}, "cost class"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate() = %v, want substring %q", err, c.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range BuiltinNames() {
		p := Builtin(name)
		data, err := p.MarshalJSONIndent()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		q, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if q.Name != p.Name || q.SIMDWidth != p.SIMDWidth ||
			q.ComplexLanes != p.ComplexLanes || len(q.Instructions) != len(p.Instructions) {
			t.Errorf("%s: round trip mismatch", name)
		}
		for _, in := range p.Instructions {
			got := q.Instr(in.Name)
			if got == nil || got.CName != in.CName || got.Cycles != in.Cycles {
				t.Errorf("%s: instruction %s did not round-trip", name, in.Name)
			}
		}
		for k, v := range p.Costs {
			if q.Cost(k) != v {
				t.Errorf("%s: cost %s did not round-trip", name, k)
			}
		}
	}
}

// Property: any processor built from a sanitized random skeleton
// round-trips through JSON with costs preserved.
func TestJSONRoundTripProperty(t *testing.T) {
	keys := DefaultCostKeys()
	f := func(width uint8, overrides []uint16) bool {
		w := int(width%8) + 1
		p := &Processor{Name: "rnd", SIMDWidth: w, ComplexLanes: w / 2, Costs: map[string]int{}}
		for i, o := range overrides {
			if i >= len(keys) {
				break
			}
			p.Costs[keys[i]] = int(o%100) + 1
		}
		if err := p.Validate(); err != nil {
			return false
		}
		data, err := p.MarshalJSONIndent()
		if err != nil {
			return false
		}
		q, err := Parse(data)
		if err != nil {
			return false
		}
		for k, v := range p.Costs {
			if q.Cost(k) != v {
				return false
			}
		}
		return q.SIMDWidth == p.SIMDWidth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Error("expected JSON error")
	}
	if _, err := Parse([]byte(`{"name":"x","simd_width":0}`)); err == nil {
		t.Error("expected validation error")
	}
}

func TestResolve(t *testing.T) {
	if _, err := Resolve("dspasip"); err != nil {
		t.Error(err)
	}
	if _, err := Resolve("/nonexistent/file.json"); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestWidthSweepFamily(t *testing.T) {
	// The sweep targets must differ only in lane count.
	widths := map[string]int{"nosimd": 1, "wide2": 2, "dspasip": 4, "wide8": 8}
	for name, w := range widths {
		p := Builtin(name)
		if p.SIMDWidth != w {
			t.Errorf("%s width = %d, want %d", name, p.SIMDWidth, w)
		}
		if !p.HasInstr("cmac") {
			t.Errorf("%s must keep the complex ISA", name)
		}
	}
}

func TestValidateRejectsDuplicateInstructions(t *testing.T) {
	p := &Processor{Name: "dup", SIMDWidth: 2, Instructions: []Instr{
		{Name: "fma", CName: "_a_fma", Cycles: 1},
		{Name: "fma", CName: "_b_fma", Cycles: 2},
	}}
	err := p.Validate()
	if err == nil {
		t.Fatal("duplicate instruction name accepted")
	}
	if !strings.Contains(err.Error(), `"fma"`) {
		t.Errorf("error %q does not name the duplicate", err)
	}

	p = &Processor{Name: "dupc", SIMDWidth: 2, Instructions: []Instr{
		{Name: "fma", CName: "_asip_op", Cycles: 1},
		{Name: "fms", CName: "_asip_op", Cycles: 1},
	}}
	err = p.Validate()
	if err == nil {
		t.Fatal("duplicate C intrinsic name accepted")
	}
	if !strings.Contains(err.Error(), "_asip_op") {
		t.Errorf("error %q does not name the shared intrinsic", err)
	}
}

func TestLoadErrorsIdentifyFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","simd_width":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(bad)
	if err == nil {
		t.Fatal("invalid description loaded")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error %q does not name the offending file", err)
	}

	_, err = Load(filepath.Join(dir, "missing.json"))
	if err == nil {
		t.Fatal("missing file loaded")
	}
	if !strings.Contains(err.Error(), "missing.json") {
		t.Errorf("error %q does not name the missing file", err)
	}
}

func TestResolveCachesNamedTargets(t *testing.T) {
	a, err := Resolve("wide2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve("wide2")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated Resolve of a named target returned distinct pointers")
	}
	// Builtin stays uncached (fresh copies for callers that derive
	// variants by mutation, e.g. bench.MemVariant).
	if Builtin("wide2") == a {
		t.Error("Builtin returned the shared cached Processor")
	}
}

func TestResolveFindsEmbeddedDescriptions(t *testing.T) {
	// Every shipped description resolves by bare name even though only
	// built-ins are in the programmatic catalog; embedded lookup covers
	// shipped-but-not-builtin descriptions.
	if _, err := procs.FS.ReadFile("dspasip.json"); err != nil {
		t.Skipf("embedded descriptions unavailable: %v", err)
	}
	for _, name := range BuiltinNames() {
		if _, err := procs.FS.ReadFile(name + ".json"); err != nil {
			t.Errorf("shipped description %s.json not embedded: %v", name, err)
		}
	}
	if p := resolveNamed("dspasip"); p == nil {
		t.Error("resolveNamed failed for a catalog target")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Builtin("dspasip")
	q := p.Clone()
	q.Costs["cload"] = 99
	q.Instructions[0].Cycles = 42
	q.SIMDWidth = 16
	if p.Costs["cload"] == 99 {
		t.Error("Clone shares the cost table with the original")
	}
	if p.Instructions[0].Cycles == 42 {
		t.Error("Clone shares the instruction slice with the original")
	}
	if p.SIMDWidth != 4 {
		t.Error("Clone mutation changed the original's SIMD width")
	}
}

// TestCloneConcurrentHasInstr: a fresh clone is indexed when Clone
// returns, so goroutines sharing it only read (run under -race), and its
// index points into the clone's own instruction list.
func TestCloneConcurrentHasInstr(t *testing.T) {
	q := Builtin("dspasip").Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !q.HasInstr("cmac") || q.HasInstr("nosuch") {
				t.Error("clone answers HasInstr wrongly")
			}
		}()
	}
	wg.Wait()
	q.Instr("fma").Cycles = 9
	if q.Instructions[0].Cycles != 9 || Builtin("dspasip").Instr("fma").Cycles == 9 {
		t.Error("clone's index does not point into its own instruction list")
	}
}

// TestIndexFollowsInstructionEdits: appending to, compacting or
// replacing an indexed processor's instruction list re-indexes it on
// the next lookup.
func TestIndexFollowsInstructionEdits(t *testing.T) {
	q := Builtin("nosimd").Clone()
	q.Instructions = append(q.Instructions, Instr{Name: "extra", CName: "_extra", Cycles: 1})
	if !q.HasInstr("extra") {
		t.Error("appended instruction not found")
	}
	kept := q.Instructions[:0]
	for _, in := range q.Instructions {
		if in.Name != "fma" {
			kept = append(kept, in)
		}
	}
	q.Instructions = kept
	if q.HasInstr("fma") || q.Instr("fms") == nil || q.Instr("fms").Name != "fms" {
		t.Error("compacted instruction list answered from a stale index")
	}
	q.Instructions = []Instr{{Name: "sad", CName: "_sad", Cycles: 2}}
	if !q.HasInstr("sad") || q.HasInstr("fms") {
		t.Error("replaced instruction list answered from a stale index")
	}
}

func TestPatternInstrs(t *testing.T) {
	p := Builtin("dspasip")
	if got := p.PatternInstrs(); got != nil {
		t.Errorf("built-in target lists pattern instructions %v", got)
	}
	q, err := p.Derive("dspasip+isx", func(q *Processor) {
		q.Instructions = append(q.Instructions,
			Instr{Name: "isx1", CName: "_isx1", Cycles: 1, Semantics: "float:add(p0,mul(p1,p1))"},
			Instr{Name: "visx1", CName: "_visx1", Cycles: 1, Semantics: "float:add(p0,mul(p1,p1))"})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []PatternInstr{{"isx1", "float:add(p0,mul(p1,p1))"}, {"visx1", "float:add(p0,mul(p1,p1))"}}
	if got := q.PatternInstrs(); !reflect.DeepEqual(got, want) {
		t.Errorf("PatternInstrs() = %v, want %v", got, want)
	}
}

func TestDeriveValidatesAndIndexes(t *testing.T) {
	base := Builtin("dspasip")
	v, err := base.Derive("dspasip-w8", func(q *Processor) {
		q.SIMDWidth = 8
		q.ComplexLanes = 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "dspasip-w8" || v.SIMDWidth != 8 {
		t.Errorf("derived variant not applied: %+v", v)
	}
	if !v.HasInstr("cmac") {
		t.Error("derived variant lost its instruction index")
	}
	if base.Name != "dspasip" || base.SIMDWidth != 4 {
		t.Error("Derive mutated the base description")
	}

	// Derive must reject inconsistent variants through Validate.
	if _, err := base.Derive("bad", func(q *Processor) {
		q.SIMDWidth = 1 // vector instructions on a scalar target
	}); err == nil {
		t.Error("Derive accepted vector instructions on a scalar target")
	}
	if _, err := base.Derive("bad2", func(q *Processor) {
		q.Costs["nosuchclass"] = 3
	}); err == nil {
		t.Error("Derive accepted an unknown cost class")
	}
}
