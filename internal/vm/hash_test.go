package vm

import (
	"fmt"
	"sync"
	"testing"

	"mat2c/internal/ir"
)

// hashTestProgram builds a program with enough instructions that
// hashing it takes measurable work, so concurrent first callers
// overlap.
func hashTestProgram(name string, n int) *Program {
	p := &Program{Name: name, NumRegs: 8}
	for i := 0; i < n; i++ {
		p.Instrs = append(p.Instrs, Instr{
			Op:   OpBin,
			K:    ir.Kind{Base: ir.Float, Lanes: 1},
			BOp:  ir.OpAdd,
			Dst:  i % 8,
			A:    (i + 1) % 8,
			B:    (i + 2) % 8,
			ImmF: float64(i),
		})
	}
	p.Instrs = append(p.Instrs, Instr{Op: OpRet})
	return p
}

// TestContentHashParallelCallers hammers ContentHash from many
// goroutines over a mix of shared and distinct programs. Run under
// -race this pins the set-once contract of the carried hash: racing
// first callers may each compute it, but every caller must see one
// stable digest per program, and distinct programs must hash
// distinctly.
func TestContentHashParallelCallers(t *testing.T) {
	const progs = 8
	const callers = 16
	ps := make([]*Program, progs)
	for i := range ps {
		ps[i] = hashTestProgram(fmt.Sprintf("p%d", i), 200+i)
	}
	want := make([]string, progs)
	for i, p := range ps {
		want[i] = p.contentHash() // uncached reference digest
	}

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				i := (c + round) % progs
				if got := ps[i].ContentHash(); got != want[i] {
					errs <- fmt.Errorf("caller %d: program %d hashed to %s, want %s", c, i, got, want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i := 0; i < progs; i++ {
		for j := i + 1; j < progs; j++ {
			if want[i] == want[j] {
				t.Errorf("distinct programs %d and %d share a hash", i, j)
			}
		}
	}
}

// BenchmarkContentHashMemoHit measures the carried path.
func BenchmarkContentHashMemoHit(b *testing.B) {
	p := hashTestProgram("hit", 300)
	p.ContentHash()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = p.ContentHash()
		}
	})
}

// TestContentHashPinned pins the digest of a fixed program that touches
// every hashed field kind (names, params, vector kinds, argument lists,
// all three immediates, intrinsic name and semantics). The digest keys
// the simulation memo, so any change to its byte layout must be
// deliberate.
func TestContentHashPinned(t *testing.T) {
	p := &Program{
		Name:    "pin",
		NumRegs: 4,
		Arrays:  []ArraySlot{{Name: "x", Elem: ir.Float}, {Name: "z", Elem: ir.Complex}},
		Params:  []Param{{Name: "x", IsArray: true, Elem: ir.Float, Arr: 0}, {Name: "a", Elem: ir.Float, Reg: 1}},
		Results: []Param{{Name: "z", IsArray: true, Elem: ir.Complex, Arr: 1}},
		Instrs: []Instr{
			{Op: OpConst, K: ir.Kind{Base: ir.Complex, Lanes: 1}, Dst: 2, ImmI: -7, ImmF: 2.5, ImmC: complex(1.5, -0.25)},
			{Op: OpIntr, K: ir.Kind{Base: ir.Float, Lanes: 4}, Dst: 3, Args: []int{0, 1, 2}, Intr: "fma3", Sem: "(+ (* a b) c)"},
			{Op: OpVLoad, K: ir.Kind{Base: ir.Float, Lanes: 4}, Dst: 3, A: 0, Arr: 0, ImmI: 2},
			{Op: OpJz, A: 1, Off: 4},
			{Op: OpRet},
		},
	}
	const want = "b61a9a76f19c93093773d72cf2b94a6dd6843e6b25c48a82c4b5cfa4538e0022"
	if got := p.contentHash(); got != want {
		t.Errorf("content hash = %s, want %s", got, want)
	}
}

// BenchmarkContentHash measures one uncached digest of a 300-instruction
// program.
func BenchmarkContentHash(b *testing.B) {
	p := hashTestProgram("bench", 300)
	for i := 0; i < b.N; i++ {
		_ = p.contentHash()
	}
}
