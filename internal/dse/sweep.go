// Package dse implements design-space exploration over generated
// processor variants: the loop ASIP papers close between compiler and
// architecture. A Sweep enumerates candidate processors derived from a
// base description (SIMD width, complex-lane configuration, custom-
// instruction subsets, cycle-cost overrides); the engine compiles and
// simulates the benchmark kernel suite against every candidate on a
// bounded worker pool — through the content-addressed compilation
// cache, so repeated sweeps and shared inputs never recompile — and
// scores each variant by total cycles against an instruction-set cost
// proxy, reporting the Pareto frontier.
package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mat2c/internal/isx"
	"mat2c/internal/pdesc"
)

// Sweep describes one axis-product of processor variants derived from
// a base description. Zero-valued fields select the default axis.
type Sweep struct {
	// Base is the base target: a built-in name, an embedded
	// description, or a JSON file path (default "dspasip").
	Base string `json:"base,omitempty"`
	// Widths is the SIMD-width axis (default 1, 2, 4, 8, 16).
	Widths []int `json:"widths,omitempty"`
	// Complex is the complex-lane axis: true derives variants with
	// width/2 complex lanes, false derives variants without complex
	// SIMD (default both).
	Complex []bool `json:"complex,omitempty"`
	// Groups lists explicit custom-instruction group subsets to sweep
	// (see InstrGroup). Empty selects the pruned power set of every
	// group present in the base description.
	Groups [][]string `json:"groups,omitempty"`
	// Costs is the cycle-cost override axis; each entry derives
	// variants with the named per-cost-class overrides applied on top
	// of the base cost table. Empty sweeps only the base costs.
	Costs []CostOverride `json:"costs,omitempty"`
	// MaxVariants caps the enumeration after pruning (0 = no cap).
	MaxVariants int `json:"max_variants,omitempty"`
	// ISX, when set, seeds the sweep with mined instruction-set
	// extensions: the isx miner profiles the kernel suite on the base
	// target and the enumeration additionally covers the base extended
	// with each mined candidate and with all of them together.
	ISX *ISXSeed `json:"isx,omitempty"`
}

// ISXSeed configures instruction-set-extension mining as a sweep axis.
type ISXSeed struct {
	// Kernels restricts the profiled kernels (default: full suite).
	Kernels []string `json:"kernels,omitempty"`
	// MaxNodes bounds the mined pattern size (default 4).
	MaxNodes int `json:"max_nodes,omitempty"`
	// Top bounds how many candidates seed the sweep (default 3 — each
	// candidate multiplies the enumeration).
	Top int `json:"top,omitempty"`
	// Scale sizes the profiled problems (default 0.25).
	Scale float64 `json:"scale,omitempty"`
}

// CostOverride is one point on the cycle-cost axis.
type CostOverride struct {
	Name  string         `json:"name"`
	Costs map[string]int `json:"costs"`
}

// LoadSweep reads a sweep specification from a JSON file, rejecting
// unknown fields so typos in axis names fail loudly.
func LoadSweep(path string) (*Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load sweep spec: %w", err)
	}
	return ParseSweep(data)
}

// ParseSweep decodes a JSON sweep specification.
func ParseSweep(data []byte) (*Sweep, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Sweep
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep spec: %w", err)
	}
	if err := checkCosts(s.Costs); err != nil {
		return nil, fmt.Errorf("sweep spec: %w", err)
	}
	return &s, nil
}

// checkCosts rejects a cost override naming a class the cost model
// does not have, or a non-positive cost. Enumeration would otherwise
// prune every variant of that override as invalid, silently sweeping
// nothing for it.
func checkCosts(costs []CostOverride) error {
	known := map[string]bool{}
	for _, k := range pdesc.DefaultCostKeys() {
		known[k] = true
	}
	for _, cs := range costs {
		classes := make([]string, 0, len(cs.Costs))
		for class := range cs.Costs {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			if !known[class] {
				return fmt.Errorf("cost override %q: unknown cost class %q", cs.Name, class)
			}
			if v := cs.Costs[class]; v < 1 {
				return fmt.Errorf("cost override %q: cost class %q has non-positive cost %d", cs.Name, class, v)
			}
		}
	}
	return nil
}

// DefaultWidths is the default SIMD-width axis.
var DefaultWidths = []int{1, 2, 4, 8, 16}

// InstrGroup classifies a custom instruction into the functional-unit
// group it belongs to; the sweep's instruction-subset axis adds or
// removes whole groups, mirroring how an ASIP designer adds a
// functional unit and gets its scalar and vector forms together.
func InstrGroup(name string) string {
	base := strings.TrimPrefix(name, "v")
	if strings.HasPrefix(base, "isx") {
		return "isx"
	}
	switch base {
	case "fma", "fms":
		return "mac"
	case "sad":
		return "sad"
	case "cadd", "csub", "cmul", "cmac", "cconjmul":
		return "cmplx"
	case "lds", "clds":
		return "stride"
	default:
		return "misc"
	}
}

// Variant is one enumerated candidate processor.
type Variant struct {
	Proc    *pdesc.Processor
	Width   int
	Complex bool
	Groups  []string
	CostSet string

	// key is Proc's content key when the variant was enumerated here;
	// a variant built elsewhere (a fleet unit, a test) has none.
	key string
}

// groupsOf returns the sorted distinct instruction groups present in a
// description.
func groupsOf(p *pdesc.Processor) []string {
	seen := map[string]bool{}
	for _, in := range p.Instructions {
		seen[InstrGroup(in.Name)] = true
	}
	groups := make([]string, 0, len(seen))
	for g := range seen {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	return groups
}

// powerSet enumerates every subset of groups in deterministic bitmask
// order (the empty subset — no custom instructions — comes first).
func powerSet(groups []string) [][]string {
	out := make([][]string, 0, 1<<len(groups))
	for mask := 0; mask < 1<<len(groups); mask++ {
		var sub []string
		for i, g := range groups {
			if mask&(1<<i) != 0 {
				sub = append(sub, g)
			}
		}
		out = append(out, sub)
	}
	return out
}

// rewidth rewrites the lane-count suffix that vector intrinsic C names
// carry by convention (_asip_vfma4 → _asip_vfma8).
func rewidth(in pdesc.Instr, lanes int) pdesc.Instr {
	in.CName = strings.TrimRight(in.CName, "0123456789") + strconv.Itoa(lanes)
	return in
}

// patternIsComplex reports whether a semantics pattern lives in the
// complex base (mined complex-vector forms follow the complex lane
// count).
func patternIsComplex(sem string) bool { return strings.HasPrefix(sem, "complex:") }

// makeVariant derives one candidate from the base description, or
// returns an error when the point is invalid (pruned by the caller).
func makeVariant(base *pdesc.Processor, width int, useComplex bool, groups []string, cost CostOverride) (*Variant, error) {
	lanes := 0
	if useComplex {
		lanes = width / 2
	}
	groupTag := "none"
	if len(groups) > 0 {
		groupTag = strings.Join(groups, "+")
	}
	w, cl := strconv.Itoa(width), strconv.Itoa(lanes)
	name := base.Name + "-w" + w + "-cl" + cl + "-" + groupTag
	if cost.Name != "" {
		name += "-" + cost.Name
	}
	proc, err := base.Derive(name, func(q *pdesc.Processor) {
		q.SIMDWidth = width
		q.ComplexLanes = lanes
		q.Description = "DSE variant of " + base.Name + " (width " + w + ", " + cl + " complex lanes, " + groupTag + ")"
		// Filter the clone's own copy of the base instructions in place.
		instrs := q.Instructions[:0]
		for _, in := range base.Instructions {
			if !slices.Contains(groups, InstrGroup(in.Name)) {
				continue
			}
			if strings.HasPrefix(in.Name, "v") {
				// Vector forms follow the lane count they operate on:
				// complex-vector instructions need >= 2 complex lanes,
				// float-vector instructions >= 2 float lanes. Mined
				// vector instructions are lane-generic through their
				// semantics pattern and carry no width suffix.
				vl := width
				if strings.HasPrefix(in.Name, "vc") || (in.Semantics != "" && patternIsComplex(in.Semantics)) {
					vl = lanes
				}
				if vl < 2 {
					continue
				}
				if in.Semantics == "" {
					in = rewidth(in, vl)
				}
			}
			instrs = append(instrs, in)
		}
		if len(instrs) == 0 {
			instrs = nil
		}
		q.Instructions = instrs
		if len(cost.Costs) > 0 {
			if q.Costs == nil {
				q.Costs = map[string]int{}
			}
			for k, v := range cost.Costs {
				q.Costs[k] = v
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return &Variant{Proc: proc, Width: width, Complex: useComplex, Groups: groups, CostSet: cost.Name}, nil
}

// appendContentKey appends p's content key to dst: its rendering
// without name and description, so sweep points that collapse to the
// same machine (e.g. complex lanes on a width-1 datapath) are pruned as
// duplicates. It renders a shallow copy: the copy's cost table and
// instruction list are p's, and rendering only reads them.
func appendContentKey(dst []byte, p *pdesc.Processor) []byte {
	q := *p
	q.Name, q.Description = "-", ""
	return q.AppendJSON(dst)
}

// contentKey returns v's content key: the one enumeration stored, or
// else a fresh rendering.
func (v *Variant) contentKey() string {
	if v.key == "" {
		return string(appendContentKey(nil, v.Proc))
	}
	return v.key
}

// CompileGroups partitions variant indices into cost-sibling groups:
// variants that differ only in name and cycle costs, which no compiler
// stage reads, so they compile to the same programs. Groups are listed
// by first appearance, each in ascending index order. A sweep
// enumerates its cost sets innermost, so within one sweep every group
// is a contiguous run of the enumeration. ExploreContext schedules
// whole groups on one worker and the fleet planner never splits one
// across units.
func CompileGroups(variants []*Variant) [][]int {
	var groups [][]int
	at := map[string]int{}
	var key []byte
	for i, v := range variants {
		q := *v.Proc
		q.Costs = nil
		key = appendContentKey(key[:0], &q)
		g, ok := at[string(key)]
		if !ok {
			g = len(groups)
			at[string(key)] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// Enumerate expands the sweep into concrete, validated, deduplicated
// variants in deterministic order. A sweep with an ISX seed first mines
// instruction-set extensions from the base target's profiles and also
// enumerates the base extended with each mined candidate and with all
// of them together (identical machines are pruned).
func (s *Sweep) Enumerate() ([]*Variant, error) {
	return s.EnumerateContext(context.Background())
}

// EnumerateContext is Enumerate under a cancellable context (the ISX
// mining seed compiles and simulates, so it can take a while).
func (s *Sweep) EnumerateContext(ctx context.Context) ([]*Variant, error) {
	if err := checkCosts(s.Costs); err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	baseName := s.Base
	if baseName == "" {
		baseName = "dspasip"
	}
	base, err := pdesc.Resolve(baseName)
	if err != nil {
		return nil, fmt.Errorf("dse: sweep base: %w", err)
	}
	bases := []*pdesc.Processor{base}
	if s.ISX != nil {
		exts, err := isxBases(ctx, base, s.ISX)
		if err != nil {
			return nil, err
		}
		bases = append(bases, exts...)
	}
	widths := s.Widths
	if len(widths) == 0 {
		widths = DefaultWidths
	}
	complexAxis := s.Complex
	if len(complexAxis) == 0 {
		complexAxis = []bool{true, false}
	}
	costSets := s.Costs
	if len(costSets) == 0 {
		costSets = []CostOverride{{}}
	}

	seen := map[string]bool{}
	var out []*Variant
	for _, b := range bases {
		groupSets := s.Groups
		if len(groupSets) == 0 {
			groupSets = powerSet(groupsOf(b))
		}
		for _, w := range widths {
			for _, cx := range complexAxis {
				for _, gs := range groupSets {
					groups := append([]string(nil), gs...)
					sort.Strings(groups)
					for _, cs := range costSets {
						v, err := makeVariant(b, w, cx, groups, cs)
						if err != nil {
							// Invalid point (e.g. non-positive width from a bad
							// spec): surface spec errors, prune model conflicts.
							if w < 1 {
								return nil, fmt.Errorf("dse: width axis: %w", err)
							}
							continue
						}
						v.key = v.contentKey()
						if seen[v.key] {
							continue
						}
						seen[v.key] = true
						out = append(out, v)
						if s.MaxVariants > 0 && len(out) >= s.MaxVariants {
							return out, nil
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dse: sweep enumerates no variants")
	}
	return out, nil
}

// isxBases mines extensions from the base target and returns the
// seeded bases: base+candidate for each mined candidate and, when more
// than one was mined, base+all.
func isxBases(ctx context.Context, base *pdesc.Processor, seed *ISXSeed) ([]*pdesc.Processor, error) {
	top := seed.Top
	if top <= 0 {
		top = 3
	}
	rep, err := isx.MineContext(ctx, base, isx.Options{
		Kernels:  seed.Kernels,
		MaxNodes: seed.MaxNodes,
		Top:      top,
		Scale:    seed.Scale,
		NoVerify: true, // the sweep itself measures every seeded variant
	})
	if err != nil {
		return nil, fmt.Errorf("dse: isx seed: %w", err)
	}
	var out []*pdesc.Processor
	for _, c := range rep.Candidates {
		p, err := isx.Extend(base, base.Name+"+"+c.Name, c)
		if err != nil {
			return nil, fmt.Errorf("dse: isx seed %s: %w", c.Name, err)
		}
		out = append(out, p)
	}
	if len(rep.Candidates) > 1 {
		p, err := isx.Extend(base, base.Name+"+isxall", rep.Candidates...)
		if err != nil {
			return nil, fmt.Errorf("dse: isx seed all: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}
