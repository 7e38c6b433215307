package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// WriteJSON emits the report as indented JSON (the asipdse -json and
// service /dse result format).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseReport decodes a JSON report, rejecting unknown fields so
// downstream tooling notices schema drift.
func ParseReport(data []byte) (*Report, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("dse report: %w", err)
	}
	return &rep, nil
}

// Identity returns what two runs of one sweep must agree on byte for
// byte, wherever and however they ran: the report's indented JSON with
// the fields that describe the run rather than the sweep zeroed. Those
// are elapsed_us (wall time) and cache_lookups and cache_hits (which
// process's cache served what), at the top and in each variant. r is
// not modified.
func (r *Report) Identity() ([]byte, error) {
	id := *r
	id.ElapsedUS, id.CacheLookups, id.CacheHits = 0, 0, 0
	id.Variants = slices.Clone(r.Variants)
	for i := range id.Variants {
		id.Variants[i].CacheLookups, id.Variants[i].CacheHits = 0, 0
	}
	var b bytes.Buffer
	if err := id.WriteJSON(&b); err != nil {
		return nil, fmt.Errorf("dse report identity: %w", err)
	}
	return b.Bytes(), nil
}

// sortedByCycles returns result indices ordered fastest-first, with
// failed variants last.
func (r *Report) sortedByCycles() []int {
	idx := make([]int, len(r.Variants))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := &r.Variants[idx[a]], &r.Variants[idx[b]]
		if (va.Error == "") != (vb.Error == "") {
			return va.Error == ""
		}
		if va.TotalCycles != vb.TotalCycles {
			return va.TotalCycles < vb.TotalCycles
		}
		return va.ISACost < vb.ISACost
	})
	return idx
}

// Text renders the run as a ranked table plus the frontier summary.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design-space exploration over %s (scale %.2f, kernels: %s)\n",
		r.Base, r.Scale, strings.Join(r.Kernels, ","))
	fmt.Fprintf(&b, "%d variants, %d on the Pareto frontier; cache %d/%d hits\n\n",
		len(r.Variants), len(r.Frontier), r.CacheHits, r.CacheLookups)
	fmt.Fprintf(&b, "%-44s %5s %5s %6s %8s %12s %9s %s\n",
		"variant", "width", "lanes", "instrs", "isacost", "cycles", "codesize", "pareto")
	for _, i := range r.sortedByCycles() {
		v := &r.Variants[i]
		if v.Error != "" {
			fmt.Fprintf(&b, "%-44s ERROR %s\n", v.Name, v.Error)
			continue
		}
		mark := ""
		if v.Pareto {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-44s %5d %5d %6d %8d %12d %9d %s\n",
			v.Name, v.SIMDWidth, v.ComplexLanes, v.Instructions, v.ISACost,
			v.TotalCycles, v.CodeSize, mark)
	}
	b.WriteString("\nPareto frontier (fastest first):\n")
	for _, name := range r.Frontier {
		fmt.Fprintf(&b, "  %s\n", name)
	}
	return b.String()
}

// CSV renders one row per variant (kernel cycle columns in suite
// order) for plotting pipelines.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString("variant,simd_width,complex_lanes,groups,cost_set,instructions,isa_cost,total_cycles,code_size,pareto")
	for _, k := range r.Kernels {
		b.WriteString(",cycles_" + k)
	}
	b.WriteString("\n")
	for _, i := range r.sortedByCycles() {
		v := &r.Variants[i]
		if v.Error != "" {
			continue
		}
		fmt.Fprintf(&b, "%s,%d,%d,%s,%s,%d,%d,%d,%d,%v",
			v.Name, v.SIMDWidth, v.ComplexLanes, strings.Join(v.Groups, "+"),
			v.CostSet, v.Instructions, v.ISACost, v.TotalCycles, v.CodeSize, v.Pareto)
		for _, k := range r.Kernels {
			fmt.Fprintf(&b, ",%d", v.KernelCycles[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}
