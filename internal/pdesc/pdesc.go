// Package pdesc implements the parameterized processor description that
// makes the compiler retargetable, mirroring the paper's claim that "the
// specialized instruction set of the target processor [is described] in a
// parameterized way allowing the support of any processor".
//
// A Processor declares the target's SIMD width, its custom instructions
// (each with the C intrinsic name the code generator emits and the cycle
// cost the VM charges), and a per-operation cycle-cost table used by the
// cycle-model simulator. Descriptions are plain JSON so new targets can
// be added without recompiling; the catalog of built-in targets covers
// the paper's DSP ASIP and the sweep/ablation variants the benchmark
// harness needs.
package pdesc

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"mat2c/internal/ir"
	"mat2c/procs"
)

// Instr describes one custom instruction exposed by the target.
type Instr struct {
	// Name is the compiler-internal intrinsic name matched by instruction
	// selection (fma, cmul, cmac, cconjmul, cadd, csub, sad, and their
	// v-prefixed vector forms; mined extensions use isxN/visxN).
	Name string `json:"name"`
	// CName is the intrinsic function name emitted in ANSI C.
	CName string `json:"cname"`
	// Cycles is the issue cost charged by the cycle model (ignored when
	// CostClass is set).
	Cycles int `json:"cycles"`
	// Semantics, when non-empty, is an ir pattern (e.g.
	// "float:add(p0,mul(p1,p2))") defining the instruction's behaviour.
	// It is what lets mined instructions — unknown to the built-in
	// intrinsic catalog — be selected, simulated, and emitted as C.
	Semantics string `json:"semantics,omitempty"`
	// CostClass, when non-empty, defers the issue cost to the named
	// entry of the processor's cost model instead of the literal Cycles,
	// so cost-table sweeps (dse) reprice the instruction automatically.
	CostClass string `json:"cost_class,omitempty"`
}

// Processor is a complete target description.
type Processor struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// SIMDWidth is the number of float lanes a vector register holds.
	// Width 1 disables vectorization.
	SIMDWidth int `json:"simd_width"`
	// ComplexLanes is the number of complex lanes a vector register
	// holds (typically SIMDWidth/2: interleaved real/imag pairs). Zero
	// disables complex vectorization.
	ComplexLanes int `json:"complex_lanes"`

	// Registers is the architectural register count (informational; the
	// cycle model charges spills only through the cost table).
	Registers int `json:"registers,omitempty"`

	// Costs overrides entries of the default cycle-cost table.
	Costs map[string]int `json:"costs,omitempty"`

	// Instructions is the custom instruction list.
	Instructions []Instr `json:"instructions,omitempty"`

	instrByName map[string]*Instr
	// indexed is the Instructions slice instrByName was built from, so a
	// caller that replaces, appends to or compacts Instructions after
	// indexing gets a fresh index on the next lookup.
	indexed []Instr
}

// defaultCosts is the base cycle-cost table for a single-issue load/store
// DSP datapath. Keys are the cost classes charged by the VM. Complex
// operations WITHOUT custom-instruction support are charged as their
// real-arithmetic expansion (e.g. a complex multiply is 4 multiplies and
// 2 adds on the scalar datapath); targets with a complex ISA override the
// cost via the instruction's Cycles.
var defaultCosts = map[string]int{
	"iadd": 1, "isub": 1, "imul": 2, "idiv": 12, "irem": 12,
	"icmp": 1, "imov": 1,
	"fadd": 1, "fsub": 1, "fmul": 2, "fdiv": 12, "frem": 14,
	"fpow": 40, "fsqrt": 14, "ftrig": 24, "fexp": 24, "fabs": 1,
	"fneg": 1, "fcmp": 1, "fmov": 1, "fround": 2, "fsign": 2,
	"conv": 1,
	// Complex arithmetic expanded on a real datapath.
	"cadd": 2, "csub": 2, "cneg": 2,
	"cmul":  10, // 4 fmul + 2 fadd
	"cdiv":  36, // Smith's algorithm
	"cconj": 1, "cabs": 16, "cmov": 2,
	// Memory.
	"load": 2, "store": 2,
	"cload": 4, "cstore": 4, // two-word access without a wide port
	// Vector memory/ops are single-issue per vector instruction.
	"vload": 2, "vstore": 2, "vop": 2, "vreduce": 3, "vsplat": 1,
	// Control.
	"branch": 3, "jump": 1, "call": 4, "ret": 2, "loopover": 1,
	// Allocation bookkeeping (charged once per alloc).
	"alloc": 10,
}

// Cost returns the cycle cost of a cost-class key, consulting the
// processor's overrides and falling back to the architectural defaults.
func (p *Processor) Cost(key string) int {
	if c, ok := p.Costs[key]; ok {
		return c
	}
	if c, ok := defaultCosts[key]; ok {
		return c
	}
	return 1
}

// IssueCost returns the cycles the cycle model charges per issue of the
// given custom instruction: the CostClass entry of the cost model when
// the instruction defers to one, the literal Cycles otherwise.
func (p *Processor) IssueCost(in *Instr) int {
	if in.CostClass != "" {
		return p.Cost(in.CostClass)
	}
	return in.Cycles
}

// Target is everything the middle-end passes (vectorize, isel) read of
// a processor description: the lane counts, which custom instructions
// exist, and the pattern-defined ones. Cycle costs, names and C
// intrinsic names are out of their reach, so two processors that agree
// on the lane counts and patterns, and answer every HasInstr query a
// compile makes alike, get the same program from both passes.
type Target interface {
	// Lanes returns the vector lane count for float (false) or complex
	// (true) elements.
	Lanes(isComplex bool) int
	// HasInstr reports whether the named custom instruction exists.
	HasInstr(name string) bool
	// PatternInstrs lists the instructions that carry Semantics, in
	// declaration order.
	PatternInstrs() []PatternInstr
}

// PatternInstr is a pattern-defined instruction as instruction
// selection sees it: its name and its semantics pattern.
type PatternInstr struct {
	Name, Semantics string
}

// PatternInstrs lists the instructions that carry Semantics, in
// declaration order (nil when there are none).
func (p *Processor) PatternInstrs() []PatternInstr {
	var out []PatternInstr
	for i := range p.Instructions {
		if in := &p.Instructions[i]; in.Semantics != "" {
			out = append(out, PatternInstr{Name: in.Name, Semantics: in.Semantics})
		}
	}
	return out
}

// HasInstr reports whether the target provides the named custom
// instruction.
func (p *Processor) HasInstr(name string) bool { return p.Instr(name) != nil }

// Instr returns the named custom instruction, or nil.
func (p *Processor) Instr(name string) *Instr {
	if p.instrByName == nil || len(p.indexed) != len(p.Instructions) ||
		(len(p.indexed) > 0 && &p.indexed[0] != &p.Instructions[0]) {
		p.index()
	}
	return p.instrByName[name]
}

func (p *Processor) index() {
	p.indexed = p.Instructions
	p.instrByName = make(map[string]*Instr, len(p.Instructions))
	for i := range p.Instructions {
		p.instrByName[p.Instructions[i].Name] = &p.Instructions[i]
	}
}

// Lanes returns the vector lane count available for the given element
// width: complex values occupy two float lanes.
func (p *Processor) Lanes(isComplex bool) int {
	if isComplex {
		return p.ComplexLanes
	}
	return p.SIMDWidth
}

// Clone returns an independent deep copy of p: mutating the clone's
// cost table or instruction list never aliases the original. The copy
// is indexed, so concurrent HasInstr and Instr calls on it only read
// until someone changes its instruction list. It is not re-validated;
// callers that mutate it should go through Derive (or call Validate
// themselves).
func (p *Processor) Clone() *Processor {
	q := &Processor{
		Name:         p.Name,
		Description:  p.Description,
		SIMDWidth:    p.SIMDWidth,
		ComplexLanes: p.ComplexLanes,
		Registers:    p.Registers,
	}
	if p.Costs != nil {
		q.Costs = make(map[string]int, len(p.Costs))
		for k, v := range p.Costs {
			q.Costs[k] = v
		}
	}
	if p.Instructions != nil {
		q.Instructions = append([]Instr(nil), p.Instructions...)
	}
	q.index()
	return q
}

// Derive builds a named variant of p for programmatic design-space
// exploration: it deep-copies p, renames the copy, applies mutate, and
// re-validates, so generated variants pass exactly the same consistency
// checks as hand-written descriptions. The receiver is never modified.
func (p *Processor) Derive(name string, mutate func(*Processor)) (*Processor, error) {
	q := p.Clone()
	q.Name = name
	if mutate != nil {
		mutate(q)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q.index()
	return q, nil
}

// Validate checks internal consistency.
func (p *Processor) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("processor description missing name")
	}
	if p.SIMDWidth < 1 {
		return fmt.Errorf("%s: simd_width must be >= 1, got %d", p.Name, p.SIMDWidth)
	}
	if p.ComplexLanes < 0 || p.ComplexLanes > p.SIMDWidth {
		return fmt.Errorf("%s: complex_lanes %d out of range [0, %d]", p.Name, p.ComplexLanes, p.SIMDWidth)
	}
	seen := map[string]bool{}
	seenC := map[string]string{}
	for _, in := range p.Instructions {
		if in.Name == "" || in.CName == "" {
			return fmt.Errorf("%s: instruction with empty name/cname", p.Name)
		}
		if in.CostClass == "" && in.Cycles < 1 {
			return fmt.Errorf("%s: instruction %s has non-positive cycle cost", p.Name, in.Name)
		}
		if in.CostClass != "" {
			if in.Cycles < 0 {
				return fmt.Errorf("%s: instruction %s has negative cycle cost", p.Name, in.Name)
			}
			// Catch a dangling cost class here rather than letting the VM
			// silently charge the 1-cycle fallback for a class nobody
			// declared.
			_, inDefaults := defaultCosts[in.CostClass]
			_, inOverrides := p.Costs[in.CostClass]
			if !inDefaults && !inOverrides {
				return fmt.Errorf("%s: instruction %s uses cost class %q which is absent from the processor's cost model", p.Name, in.Name, in.CostClass)
			}
		}
		if in.Semantics != "" {
			if _, err := ir.CachedPattern(in.Semantics); err != nil {
				return fmt.Errorf("%s: instruction %s: %v", p.Name, in.Name, err)
			}
		}
		if seen[in.Name] {
			return fmt.Errorf("%s: duplicate custom instruction %q (the later entry would silently shadow the earlier one)", p.Name, in.Name)
		}
		seen[in.Name] = true
		if prev, dup := seenC[in.CName]; dup {
			return fmt.Errorf("%s: instructions %q and %q share C intrinsic name %q", p.Name, prev, in.Name, in.CName)
		}
		seenC[in.CName] = in.Name
		if isVectorInstr(in.Name) && p.SIMDWidth < 2 {
			return fmt.Errorf("%s: vector instruction %s on a scalar target", p.Name, in.Name)
		}
	}
	for k := range p.Costs {
		if _, ok := defaultCosts[k]; !ok {
			return fmt.Errorf("%s: unknown cost class %q", p.Name, k)
		}
	}
	return nil
}

func isVectorInstr(name string) bool { return len(name) > 1 && name[0] == 'v' }

// Load reads and validates a processor description from a JSON file.
// Errors identify the offending file.
func Load(path string) (*Processor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load processor description: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("load processor description %s: %w", path, err)
	}
	return p, nil
}

// Parse decodes and validates a JSON processor description.
func Parse(data []byte) (*Processor, error) {
	var p Processor
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("processor description: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.index()
	return &p, nil
}

// MarshalJSONIndent serializes the description for writing procs/*.json.
func (p *Processor) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ----- Built-in target catalog -----

// scalarInstrs is the custom scalar instruction set of the paper-like
// DSP ASIP: fused MAC plus a complex-arithmetic ISA.
func asipScalarInstrs() []Instr {
	return []Instr{
		{Name: "fma", CName: "_asip_fma", Cycles: 1},
		{Name: "fms", CName: "_asip_fms", Cycles: 1},
		{Name: "cadd", CName: "_asip_cadd", Cycles: 1},
		{Name: "csub", CName: "_asip_csub", Cycles: 1},
		{Name: "cmul", CName: "_asip_cmul", Cycles: 2},
		{Name: "cmac", CName: "_asip_cmac", Cycles: 2},
		{Name: "cconjmul", CName: "_asip_cconjmul", Cycles: 2},
		{Name: "sad", CName: "_asip_sad", Cycles: 2},
	}
}

func asipVectorInstrs(w int) []Instr {
	instrs := []Instr{
		{Name: "vfma", CName: fmt.Sprintf("_asip_vfma%d", w), Cycles: 2},
		{Name: "vfms", CName: fmt.Sprintf("_asip_vfms%d", w), Cycles: 2},
		{Name: "vsad", CName: fmt.Sprintf("_asip_vsad%d", w), Cycles: 2},
		// Strided vector load (decimation/polyphase access patterns).
		{Name: "vlds", CName: fmt.Sprintf("_asip_vlds%d", w), Cycles: 3},
	}
	if w/2 >= 2 {
		instrs = append(instrs,
			Instr{Name: "vclds", CName: fmt.Sprintf("_asip_vclds%d", w/2), Cycles: 3})
	}
	// Complex vector forms only exist when at least two complex lanes
	// fit in a vector register.
	if w/2 >= 2 {
		instrs = append(instrs,
			Instr{Name: "vcadd", CName: fmt.Sprintf("_asip_vcadd%d", w/2), Cycles: 1},
			Instr{Name: "vcsub", CName: fmt.Sprintf("_asip_vcsub%d", w/2), Cycles: 1},
			Instr{Name: "vcmul", CName: fmt.Sprintf("_asip_vcmul%d", w/2), Cycles: 2},
			Instr{Name: "vcmac", CName: fmt.Sprintf("_asip_vcmac%d", w/2), Cycles: 2},
			Instr{Name: "vcconjmul", CName: fmt.Sprintf("_asip_vcconjmul%d", w/2), Cycles: 2},
		)
	}
	return instrs
}

// asipCosts models the ASIP's wide memory port: complex and vector
// accesses are single-cycle-class accesses rather than split words.
func asipCosts() map[string]int {
	return map[string]int{
		"cload": 2, "cstore": 2,
		"vload": 2, "vstore": 2,
	}
}

// Builtin returns the named built-in target, or nil.
//
//	scalar    — plain RISC datapath, no SIMD, no custom instructions
//	          (the MATLAB-Coder-baseline execution target)
//	dspasip   — the paper-like DSP ASIP: 4 float lanes, 2 complex lanes,
//	          MAC + complex ISA (scalar and vector forms)
//	wide2     — dspasip variant with 2 float lanes (width sweep)
//	wide8     — dspasip variant with 8 float lanes (width sweep)
//	nocomplex — 4-lane SIMD but no complex ISA (ablation)
//	nosimd    — complex ISA but no SIMD (ablation)
func Builtin(name string) *Processor {
	var p *Processor
	switch name {
	case "scalar":
		p = &Processor{
			Name:        "scalar",
			Description: "single-issue RISC datapath without SIMD or custom instructions",
			SIMDWidth:   1, ComplexLanes: 0, Registers: 32,
		}
	case "dspasip":
		p = &Processor{
			Name:        "dspasip",
			Description: "DSP ASIP with 4-lane SIMD, fused MAC and complex-arithmetic ISA",
			SIMDWidth:   4, ComplexLanes: 2, Registers: 64,
			Costs:        asipCosts(),
			Instructions: append(asipScalarInstrs(), asipVectorInstrs(4)...),
		}
	case "wide2":
		p = &Processor{
			Name:        "wide2",
			Description: "dspasip variant with 2-lane SIMD (width sweep)",
			SIMDWidth:   2, ComplexLanes: 1, Registers: 64,
			Costs:        asipCosts(),
			Instructions: append(asipScalarInstrs(), asipVectorInstrs(2)...),
		}
	case "wide8":
		p = &Processor{
			Name:        "wide8",
			Description: "dspasip variant with 8-lane SIMD (width sweep)",
			SIMDWidth:   8, ComplexLanes: 4, Registers: 64,
			Costs:        asipCosts(),
			Instructions: append(asipScalarInstrs(), asipVectorInstrs(8)...),
		}
	case "nocomplex":
		p = &Processor{
			Name:        "nocomplex",
			Description: "4-lane SIMD with fused MAC but no complex-arithmetic ISA (ablation)",
			SIMDWidth:   4, ComplexLanes: 2, Registers: 64,
			Instructions: []Instr{
				{Name: "fma", CName: "_asip_fma", Cycles: 1},
				{Name: "fms", CName: "_asip_fms", Cycles: 1},
				{Name: "vfma", CName: "_asip_vfma4", Cycles: 2},
				{Name: "vfms", CName: "_asip_vfms4", Cycles: 2},
				{Name: "sad", CName: "_asip_sad", Cycles: 2},
				{Name: "vsad", CName: "_asip_vsad4", Cycles: 2},
			},
		}
	case "nosimd":
		p = &Processor{
			Name:        "nosimd",
			Description: "complex-arithmetic ISA without SIMD (ablation)",
			SIMDWidth:   1, ComplexLanes: 0, Registers: 32,
			Costs:        map[string]int{"cload": 2, "cstore": 2},
			Instructions: asipScalarInstrs(),
		}
	default:
		return nil
	}
	p.index()
	return p
}

// BuiltinNames lists the built-in target names in stable order.
func BuiltinNames() []string {
	names := []string{"scalar", "dspasip", "wide2", "wide8", "nocomplex", "nosimd"}
	sort.Strings(names)
	return names
}

// resolved caches named targets (built-ins and embedded descriptions)
// so concurrent compiles neither re-parse JSON nor re-read anything,
// and all see one immutable *Processor per name. Explicit file paths
// stay uncached: user-defined descriptions may change on disk between
// calls.
var resolved = struct {
	sync.RWMutex
	m map[string]*Processor
}{m: map[string]*Processor{}}

// Resolve returns the target named s: a built-in, an embedded shipped
// description (procs/<s>.json compiled into the binary), or — when no
// name matches — a JSON description loaded from s as a file path.
//
// Named lookups are cached behind a sync.RWMutex and return a shared
// *Processor; callers must treat it as read-only (clone it, as
// bench.MemVariant does, to derive variants).
func Resolve(s string) (*Processor, error) {
	resolved.RLock()
	p := resolved.m[s]
	resolved.RUnlock()
	if p != nil {
		return p, nil
	}
	if p := resolveNamed(s); p != nil {
		resolved.Lock()
		// Keep the first published copy if another goroutine raced us
		// here, so every caller observes the same pointer.
		if prev := resolved.m[s]; prev != nil {
			p = prev
		} else {
			resolved.m[s] = p
		}
		resolved.Unlock()
		return p, nil
	}
	p, err := Load(s)
	if err != nil {
		return nil, fmt.Errorf("no built-in or embedded processor %q and cannot load as file: %w", s, err)
	}
	return p, nil
}

// resolveNamed resolves s against the built-in catalog, then the
// embedded shipped descriptions. Returns nil when s is not a known
// target name.
func resolveNamed(s string) *Processor {
	if p := Builtin(s); p != nil {
		return p
	}
	data, err := procs.FS.ReadFile(s + ".json")
	if err != nil {
		return nil
	}
	p, err := Parse(data)
	if err != nil {
		// An embedded description that fails validation is a build
		// defect; fall through to path loading, which will report a
		// coherent error.
		return nil
	}
	return p
}

// DefaultCostKeys returns the known cost-class keys (for docs/tests).
func DefaultCostKeys() []string {
	keys := make([]string, 0, len(defaultCosts))
	for k := range defaultCosts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
