package e2ebench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Benchmark is the part of BENCHMARK.json the benchmark reads: the run
// length, the metric lists and each end-to-end metric's regression
// bound.
type Benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// LoadBenchmark reads BENCHMARK.json.
func LoadBenchmark(path string) (*Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// WriteRecords writes runs as a JSON array, the format -compare reads.
func WriteRecords(path string, recs []*Record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRecords loads every *.json file in dir, in file-name order, each
// an array of records as WriteRecords writes it.
func readRecords(dir string) ([]*Record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*Record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var recs []*Record
		if err := json.Unmarshal(data, &recs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, recs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no run records (*.json) in %s", dir)
	}
	return out, nil
}

// Verdict judges a change against its parent on one metric from
// paired runs (parent[i] and change[i] ran back to back, alternating
// which went first). It returns how many pairs the change won (ties
// count for neither) and one of:
//
//	better      the change won at least 9 of 10 pairs and the medians
//	            differ by more than the parent's interquartile range
//	worse       the change's median is worse than the parent's by more
//	            than bound (a share of the parent's median)
//	unresolved  the parent's own spread is wider than the bound, so a
//	            regression of that size could not be seen
//	unchanged   otherwise
func Verdict(parent, change []float64, better string, bound float64) (wins, pairs int, verdict string) {
	pairs = len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	sign := 1.0 // lower is better
	if better == "higher" {
		sign = -1
	}
	for i := 0; i < pairs; i++ {
		if sign*(parent[i]-change[i]) > 0 {
			wins++
		}
	}
	if pairs == 0 {
		return 0, 0, "unresolved"
	}
	pm, cm := Median(parent), Median(change)
	q := Quartiles(parent)
	iqr := q[2] - q[0]
	gain := sign * (pm - cm) // positive when the change is better
	switch {
	case wins*10 >= 9*pairs && gain > iqr:
		return wins, pairs, "better"
	case pm != 0 && iqr/math.Abs(pm) > bound:
		if allBetter(parent, change, sign) {
			return wins, pairs, "unchanged"
		}
		return wins, pairs, "unresolved"
	case -gain > bound*math.Abs(pm):
		return wins, pairs, "worse"
	default:
		return wins, pairs, "unchanged"
	}
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(parent, change []float64, sign float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(p-c) <= 0 {
				return false
			}
		}
	}
	return true
}

// Compare reads run records from a parent and a change directory and
// writes one row per workload and metric: each side's median,
// quartiles and run count, the change's wins over the pairs, and for
// end-to-end metrics the verdict under BENCHMARK.json's bound. Per-layer
// rows (from traced runs) carry no verdict. It reports whether any
// end-to-end verdict is "worse".
func Compare(w io.Writer, b *Benchmark, parentDir, changeDir string) (bool, error) {
	parent, err := readRecords(parentDir)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changeDir)
	if err != nil {
		return false, err
	}
	values := func(recs []*Record, workload string, trace bool, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == workload && r.Trace == trace {
				if v, ok := r.Result.Metrics[metric]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	side := func(xs []float64) string {
		q := Quartiles(xs)
		return fmt.Sprintf("%12.4f [%.4f, %.4f] n=%d", q[1], q[0], q[2], len(xs))
	}
	worse := false
	fmt.Fprintf(w, "%-11s %-24s %-40s %-40s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range b.Workloads {
		for _, m := range b.EndToEnd {
			p, c := values(parent, wl.Name, false, m.Name), values(change, wl.Name, false, m.Name)
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			wins, pairs, v := Verdict(p, c, m.Better, m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-11s %-24s %-40s %-40s %3d/%-3d %s\n", wl.Name, m.Name+" ("+m.Unit+")", side(p), side(c), wins, pairs, v)
		}
		for _, m := range b.PerLayer {
			p, c := values(parent, wl.Name, true, m.Name), values(change, wl.Name, true, m.Name)
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			wins, pairs, _ := Verdict(p, c, m.Better, 0)
			fmt.Fprintf(w, "%-11s %-24s %-40s %-40s %3d/%-3d\n", wl.Name, m.Name+" ("+m.Unit+")", side(p), side(c), wins, pairs)
		}
	}
	return worse, nil
}
