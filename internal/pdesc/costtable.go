package pdesc

import "sort"

// CostTable is a dense-integer view of a processor's cycle-cost model:
// every cost class the VM can charge (the architectural classes of
// defaultCosts plus the target's custom-instruction names) gets a small
// stable ID, so per-instruction accounting becomes an array add instead
// of a string-keyed map operation on the execution hot path.
//
// IDs are assigned in sorted-name order and are therefore deterministic
// for a given processor, but they are NOT stable across processors: a
// table is only meaningful together with the processor it was built
// from. Custom-instruction names that shadow an architectural class
// (e.g. a "cmul" instruction) share that class's ID — matching the VM's
// accounting, where both charge sites tally into one class counter.
type CostTable struct {
	names []string
	ids   map[string]int
	costs []int64 // architectural per-charge cost (Processor.Cost)
}

// NewCostTable builds the dense cost table for p. The table is
// immutable and safe for concurrent use; p must not be mutated
// afterwards (the usual read-only contract for shared descriptions).
func NewCostTable(p *Processor) *CostTable {
	set := make(map[string]bool, len(defaultCosts)+len(p.Instructions))
	for k := range defaultCosts {
		set[k] = true
	}
	for i := range p.Instructions {
		set[p.Instructions[i].Name] = true
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	t := &CostTable{
		names: names,
		ids:   make(map[string]int, len(names)),
		costs: make([]int64, len(names)),
	}
	for id, name := range names {
		t.ids[name] = id
		t.costs[id] = int64(p.Cost(name))
	}
	return t
}

// ID returns the dense class ID for name. Every class the VM charges
// for this processor is present; ok is false only for names outside
// both the architectural table and the instruction list.
func (t *CostTable) ID(name string) (int, bool) {
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the class name for a dense ID.
func (t *CostTable) Name(id int) string { return t.names[id] }

// Cost returns the architectural per-charge cycle cost of a class ID
// (custom-instruction issue costs are resolved separately via Instr,
// since an instruction may shadow an architectural class name).
func (t *CostTable) Cost(id int) int64 { return t.costs[id] }

// Len returns the number of classes (IDs are 0..Len-1).
func (t *CostTable) Len() int { return len(t.names) }
