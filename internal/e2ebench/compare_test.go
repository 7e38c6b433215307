package e2ebench

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The spreads the benchmark reports must match the ones an external
// check computes with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4}, [3]float64{1.675, 3.75, 8.525}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		got := Quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p + d
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}
	exact := func(v float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"faster on every pair", parent, shift(-5), "lower", 0.1, "better"},
		{"within the bound", parent, shift(3), "lower", 0.1, "unchanged"},
		{"past the bound", parent, shift(15), "lower", 0.1, "worse"},
		{"higher is better", parent, shift(15), "higher", 0.1, "better"},
		{"spread wider than the bound", noisy, shift(2), "lower", 0.1, "unresolved"},
		// Exact counts (code size, simulated cycles) have bound 0: one unit
		// either way decides.
		{"exact count one unit worse", exact(75536), exact(75537), "lower", 0, "worse"},
		{"exact count one unit better", exact(75536), exact(75535), "lower", 0, "better"},
		{"exact count the same", exact(75536), exact(75536), "lower", 0, "unchanged"},
	} {
		if _, _, got := Verdict(c.parent, c.change, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReadsRecordDirectories(t *testing.T) {
	b, err := LoadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	write := func(dir string, latency float64) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			r := newRecord(Config{Workload: "dse-warm", Seed: uint64(i)}, false)
			r.set("latency_ms", latency+float64(i%3))
			if err := WriteRecords(filepath.Join(dir, "run-"+string(rune('a'+i))+".json"), []*Record{r}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	write(filepath.Join(dir, "parent"), 1000)
	write(filepath.Join(dir, "change"), 1400)
	var out strings.Builder
	worse, err := Compare(&out, b, filepath.Join(dir, "parent"), filepath.Join(dir, "change"))
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "latency_ms (ms)") || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 40%% slower change should read worse:\n%s", out.String())
	}
}
