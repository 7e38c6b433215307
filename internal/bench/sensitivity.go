package bench

import (
	"fmt"
	"strings"

	"mat2c/internal/core"
	"mat2c/internal/pdesc"
)

// Fig4Row is one kernel's speedup across memory-latency assumptions
// (the cost-model sensitivity study, an extension of the paper's
// evaluation: it shows how much of the win is fused memory traffic).
type Fig4Row struct {
	Kernel    string    `json:"kernel"`
	MemCosts  []int     `json:"mem_costs"`
	Baselines []int64   `json:"baseline_cycles"`
	Proposeds []int64   `json:"proposed_cycles"`
	Speedups  []float64 `json:"speedups"`
}

// MemCostSweep is the swept per-access cycle cost.
var MemCostSweep = []int{1, 2, 4, 8}

// MemVariant builds a dspasip clone whose memory accesses cost c
// cycles (exported for the root benchmark harness).
func MemVariant(c int) *pdesc.Processor {
	p, err := pdesc.Builtin("dspasip").Derive(fmt.Sprintf("dspasip-mem%d", c), func(q *pdesc.Processor) {
		if q.Costs == nil {
			q.Costs = map[string]int{}
		}
		for _, k := range []string{"load", "store", "cload", "cstore", "vload", "vstore"} {
			q.Costs[k] = c
		}
	})
	if err != nil {
		// The mutation only touches known cost classes; failure would be
		// a programming error in the sweep itself.
		panic(err)
	}
	return p
}

// Fig4 regenerates the sensitivity study: for each kernel and memory
// cost, the baseline and proposed cycle counts and the speedup.
func Fig4(scale float64, opts ...Opt) ([]Fig4Row, error) {
	o := getOptions(opts)
	ks := Kernels()
	rows := make([]Fig4Row, len(ks))
	err := forEach(len(ks), o.jobs, func(ki int) error {
		k := ks[ki]
		n := SizeFor(k, scale)
		row := Fig4Row{Kernel: k.Name}
		for _, c := range MemCostSweep {
			p := MemVariant(c)
			base, err := RunPipelineCached(o.ctx, o.cache, k, core.Baseline(p), n)
			if err != nil {
				return fmt.Errorf("%s mem=%d: %w", k.Name, c, err)
			}
			prop, err := RunPipelineCached(o.ctx, o.cache, k, core.Proposed(p), n)
			if err != nil {
				return fmt.Errorf("%s mem=%d: %w", k.Name, c, err)
			}
			row.MemCosts = append(row.MemCosts, c)
			row.Baselines = append(row.Baselines, base.Cycles)
			row.Proposeds = append(row.Proposeds, prop.Cycles)
			row.Speedups = append(row.Speedups, float64(base.Cycles)/float64(prop.Cycles))
		}
		rows[ki] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig4Text renders the sensitivity table.
func Fig4Text(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("Figure 4 (extension): speedup vs. memory access cost (cycles per access)\n")
	if len(rows) > 0 {
		fmt.Fprintf(&b, "%-8s", "kernel")
		for _, c := range rows[0].MemCosts {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("mem=%d", c))
		}
		b.WriteString("\n")
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Kernel)
		for _, s := range r.Speedups {
			fmt.Fprintf(&b, " %8.2fx", s)
		}
		b.WriteString("\n")
	}
	return b.String()
}
