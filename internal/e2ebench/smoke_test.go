package e2ebench

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

func loadBenchmarkFile(t *testing.T) *Benchmark {
	t.Helper()
	b, err := LoadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The metric lists in code and in BENCHMARK.json must agree: the file
// is what a reader (and -compare) trusts.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, Workloads[i])
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) || len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, code %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(EndToEnd), len(PerLayer))
	}
	for i, m := range b.EndToEnd {
		if c := EndToEnd[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, code %+v", i, m, c)
		}
	}
	for i, m := range b.PerLayer {
		if c := PerLayer[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, code %+v", i, m, c)
		}
	}
}

// TestQuickSmoke runs every workload once, end to end and traced, at
// smoke-test sizes, and checks that each reports every metric
// BENCHMARK.json names, with its unit, and that no output was wrong.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark's binaries")
	}
	b := loadBenchmarkFile(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	work := t.TempDir()
	bin, err := Build(ctx, filepath.Join("..", ".."), filepath.Join(work, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []*Record
	for _, w := range Workloads {
		cfg := Config{Workload: w, Seed: 1, Seconds: time.Second, Quick: true, WorkDir: work}
		run, err := Run(ctx, cfg, bin)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		traced, err := Trace(ctx, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		for _, r := range []*Record{run, traced} {
			if !r.Result.Correct || r.Result.Failed != 0 || r.Result.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d problems=%v",
					w, r.Trace, r.Result.Correct, r.Result.Attempted, r.Result.Failed, r.Problems)
			}
			if v, ok := r.Extra["wrong_outputs"]; ok && v.Value != 0 {
				t.Errorf("%s: %v wrong outputs", w, v.Value)
			}
		}
		for _, m := range b.EndToEnd {
			v, ok := run.Result.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w, m.Name, v, m.Unit)
			}
		}
		for _, m := range b.PerLayer {
			if v, ok := traced.Result.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v, want a value in %s", w, m.Name, v, m.Unit)
			}
		}
		if n := len(run.Result.Metrics); n != len(b.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, BENCHMARK.json names %d", w, n, len(b.EndToEnd))
		}
		recs = append(recs, run)
	}
	if err := CheckReports(recs); err != nil {
		t.Error(err)
	}
}
