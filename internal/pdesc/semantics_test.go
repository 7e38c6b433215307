package pdesc

import (
	"path/filepath"
	"strings"
	"testing"
)

// A cost class that exists in neither the defaults nor the processor's
// overrides must be rejected at validation time: before this check the
// VM would quietly charge the 1-cycle fallback for a class nobody
// declared, making a typo in a procs JSON look like a fast instruction.
func TestValidateRejectsDanglingCostClass(t *testing.T) {
	p := &Processor{Name: "x", SIMDWidth: 1, Instructions: []Instr{
		{Name: "isx0", CName: "_a_isx0", Cycles: 0,
			Semantics: "float:add(p0,p1)", CostClass: "nosuchclass"},
	}}
	err := p.Validate()
	if err == nil {
		t.Fatal("dangling cost class accepted")
	}
	if !strings.Contains(err.Error(), `"nosuchclass"`) || !strings.Contains(err.Error(), "cost model") {
		t.Errorf("error %q does not name the dangling class", err)
	}
}

// Regression: the same defect arriving through a procs JSON file must
// fail at Load, identifying the file.
func TestLoadRejectsBrokenCostClassJSON(t *testing.T) {
	path := filepath.Join("testdata", "badcostclass.json")
	_, err := Load(path)
	if err == nil {
		t.Fatalf("%s: broken description loaded", path)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the offending file", err)
	}
	if !strings.Contains(err.Error(), `"fused_mac"`) {
		t.Errorf("error %q does not name the dangling cost class", err)
	}
}

func TestValidateCostClassResolution(t *testing.T) {
	// A default class is fine, an override-declared class is fine, and
	// Cycles may then legitimately be zero (the class carries the cost).
	ok := []Processor{
		{Name: "d", SIMDWidth: 1, Instructions: []Instr{
			{Name: "isx0", CName: "_a0", Semantics: "float:add(p0,p1)", CostClass: "fadd"}}},
		{Name: "o", SIMDWidth: 1, Costs: map[string]int{"fmul": 3}, Instructions: []Instr{
			{Name: "isx0", CName: "_a0", Semantics: "float:mul(p0,p1)", CostClass: "fmul"}}},
	}
	for _, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	// Without a cost class, zero cycles stays invalid.
	bad := Processor{Name: "z", SIMDWidth: 1, Instructions: []Instr{
		{Name: "isx0", CName: "_a0", Cycles: 0, Semantics: "float:add(p0,p1)"}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "cycle cost") {
		t.Errorf("zero cycles without a cost class: %v", err)
	}
	neg := &Processor{Name: "n", SIMDWidth: 1, Instructions: []Instr{
		{Name: "isx0", CName: "_a0", Cycles: -1, Semantics: "float:add(p0,p1)", CostClass: "fadd"}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative cycles with a cost class accepted")
	}
}

func TestValidateRejectsBadSemantics(t *testing.T) {
	p := &Processor{Name: "x", SIMDWidth: 1, Instructions: []Instr{
		{Name: "isx0", CName: "_a_isx0", Cycles: 1, Semantics: "float:div(p0,p1)"},
	}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "div") {
		t.Errorf("bad semantics: %v", err)
	}
}

func TestIssueCost(t *testing.T) {
	p := &Processor{Name: "x", SIMDWidth: 1,
		Costs: map[string]int{"fmul": 5},
		Instructions: []Instr{
			{Name: "plain", CName: "_a_plain", Cycles: 7},
			{Name: "classy", CName: "_a_classy", Semantics: "float:mul(p0,p1)", CostClass: "fmul"},
		}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.IssueCost(p.Instr("plain")); got != 7 {
		t.Errorf("plain IssueCost = %d, want 7", got)
	}
	if got := p.IssueCost(p.Instr("classy")); got != 5 {
		t.Errorf("classy IssueCost = %d, want override 5", got)
	}
}

func TestSemanticsRoundTripAndOmitted(t *testing.T) {
	p := &Processor{Name: "x", SIMDWidth: 1, Instructions: []Instr{
		{Name: "isx0", CName: "_a_isx0", Cycles: 2, Semantics: "float:add(p0,mul(p1,p2))"},
	}}
	data, err := p.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Instr("isx0").Semantics != p.Instructions[0].Semantics {
		t.Error("semantics did not round-trip")
	}
	// The new fields must not appear in descriptions that do not use
	// them, so the serialized form of every pre-existing target is
	// unchanged.
	plain, err := Builtin("dspasip").MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"semantics", "cost_class"} {
		if strings.Contains(string(plain), field) {
			t.Errorf("builtin JSON mentions %q for instructions that do not use it", field)
		}
	}
}
