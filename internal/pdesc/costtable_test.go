package pdesc

import "testing"

func TestCostTableCoversArchitecturalClasses(t *testing.T) {
	for _, name := range BuiltinNames() {
		p := Builtin(name)
		tab := NewCostTable(p)
		for class := range defaultCosts {
			id, ok := tab.ID(class)
			if !ok {
				t.Fatalf("%s: class %q missing", name, class)
			}
			if got, want := tab.Cost(id), int64(p.Cost(class)); got != want {
				t.Errorf("%s/%s: table cost %d, Processor.Cost %d", name, class, got, want)
			}
			if tab.Name(id) != class {
				t.Errorf("%s/%s: Name(ID) = %q", name, class, tab.Name(id))
			}
		}
		for i := range p.Instructions {
			if _, ok := tab.ID(p.Instructions[i].Name); !ok {
				t.Errorf("%s: instruction %q missing from table", name, p.Instructions[i].Name)
			}
		}
		if tab.Len() < len(defaultCosts) {
			t.Errorf("%s: table len %d < %d architectural classes", name, tab.Len(), len(defaultCosts))
		}
	}
}

func TestCostTableDeterministicIDs(t *testing.T) {
	p := Builtin("dspasip")
	a, b := NewCostTable(p), NewCostTable(p)
	if a.Len() != b.Len() {
		t.Fatalf("len %d vs %d", a.Len(), b.Len())
	}
	for id := 0; id < a.Len(); id++ {
		if a.Name(id) != b.Name(id) || a.Cost(id) != b.Cost(id) {
			t.Fatalf("id %d: %s/%d vs %s/%d", id, a.Name(id), a.Cost(id), b.Name(id), b.Cost(id))
		}
	}
}

func TestCostTableRespectsOverrides(t *testing.T) {
	p := Builtin("scalar").Clone()
	p.Costs = map[string]int{"fmul": 7}
	tab := NewCostTable(p)
	id, ok := tab.ID("fmul")
	if !ok || tab.Cost(id) != 7 {
		t.Errorf("override not reflected: ok=%v cost=%d", ok, tab.Cost(id))
	}
}
