package bench

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mat2c/internal/core"
	"mat2c/internal/pdesc"
)

// smallScale shrinks problem sizes so the full experiment matrix stays
// fast under `go test`.
const smallScale = 0.25

// TestKernelsVerifyUnderAllPipelines compiles every kernel under every
// pipeline variant and target in the evaluation and checks its output
// against the Go reference (RunPipelineCached fails on mismatch).
func TestKernelsVerifyUnderAllPipelines(t *testing.T) {
	targets := []*pdesc.Processor{
		pdesc.Builtin("scalar"),
		pdesc.Builtin("dspasip"),
		pdesc.Builtin("wide8"),
		pdesc.Builtin("nocomplex"),
		pdesc.Builtin("nosimd"),
	}
	for _, k := range Kernels() {
		for _, p := range targets {
			for _, ac := range AblationConfigs() {
				n := SizeFor(k, smallScale)
				if _, err := RunPipelineCached(context.Background(), nil, k, ac.Cfg(p), n); err != nil {
					t.Errorf("%s on %s (%s): %v", k.Name, p.Name, ac.Name, err)
				}
			}
		}
	}
}

// TestKernelsAcrossSizes exercises edge problem sizes, including ones
// that are not multiples of the SIMD width.
func TestKernelsAcrossSizes(t *testing.T) {
	proc := pdesc.Builtin("dspasip")
	for _, k := range Kernels() {
		sizes := []int{17, 33, 64}
		if k.Name == "fft" {
			sizes = []int{16, 64, 128} // powers of two only
		}
		if k.Name == "matmul" {
			sizes = []int{3, 9, 17}
		}
		for _, n := range sizes {
			if n < minSize(k) {
				continue
			}
			if _, err := RunPipelineCached(context.Background(), nil, k, core.Proposed(proc), n); err != nil {
				t.Errorf("%s n=%d: %v", k.Name, n, err)
			}
			if _, err := RunPipelineCached(context.Background(), nil, k, core.Baseline(proc), n); err != nil {
				t.Errorf("%s baseline n=%d: %v", k.Name, n, err)
			}
		}
	}
}

func minSize(k *Kernel) int {
	switch k.Name {
	case "fir", "cfir":
		return firTaps + 1
	case "xcorr":
		return xcorrMaxLag + 2
	}
	return 2
}

// TestTable1Shape asserts the headline claims the table must reproduce:
// the proposed compiler always wins, the recurrence-bound kernel sits at
// the low end, and the fused/vectorized streaming kernels at the high
// end, spanning roughly the paper's 2x-30x band.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1(pdesc.Builtin("dspasip"), smallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 6 benchmarks, got %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Kernel] = r
		if r.Speedup <= 1 {
			t.Errorf("%s: proposed (%d) not faster than baseline (%d)",
				r.Kernel, r.Proposed, r.Baseline)
		}
	}
	// Ordering: recurrence/irregular kernels at the bottom, streaming
	// slice kernels at the top.
	lowEnd := []string{"iirsos", "fft"}
	highEnd := []string{"fir", "cfir"}
	for _, lo := range lowEnd {
		for _, hi := range highEnd {
			if byName[lo].Speedup >= byName[hi].Speedup {
				t.Errorf("%s (%.1fx) should be below %s (%.1fx)",
					lo, byName[lo].Speedup, hi, byName[hi].Speedup)
			}
		}
	}
	// Band: the best kernel reaches the multi-x regime.
	best := 0.0
	for _, r := range rows {
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	if best < 8 {
		t.Errorf("best speedup %.1fx; expected the complex/streaming kernels near or above 10x", best)
	}
}

// TestFig2AblationMonotone checks the feature ablation: the full
// pipeline is at least as fast as each single-feature variant, and every
// variant beats or matches the coder-style baseline.
func TestFig2AblationMonotone(t *testing.T) {
	rows, err := Fig2(pdesc.Builtin("dspasip"), smallScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		full := r.Speedups[len(r.Speedups)-1]
		for i, v := range r.Variants {
			s := r.Speedups[i]
			if s < 0.99 {
				t.Errorf("%s/%s: slower than baseline (%.2fx)", r.Kernel, v, s)
			}
			// Allow tiny noise: full must be >= any partial variant.
			if full < s*0.999 {
				t.Errorf("%s: full (%.2fx) slower than %s (%.2fx)", r.Kernel, full, v, s)
			}
		}
	}
}

// TestFig2FeatureAttribution checks that each feature matters where it
// should: SIMD moves the FIR, custom instructions move the complex FIR.
func TestFig2FeatureAttribution(t *testing.T) {
	rows, err := Fig2(pdesc.Builtin("dspasip"), smallScale)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, v := range AblationConfigs() {
		idx[v.Name] = i
	}
	byName := map[string]Fig2Row{}
	for _, r := range rows {
		byName[r.Kernel] = r
	}
	fir := byName["fir"]
	if fir.Speedups[idx["+simd"]] <= fir.Speedups[idx["+fusion"]]*1.2 {
		t.Errorf("fir: SIMD should add clearly over fusion alone: %+v", fir.Speedups)
	}
	cfir := byName["cfir"]
	if cfir.Speedups[idx["+custom-instr"]] <= cfir.Speedups[idx["+fusion"]]*1.1 {
		t.Errorf("cfir: complex custom instructions should add over fusion alone: %+v", cfir.Speedups)
	}
	iir := byName["iirsos"]
	if iir.Speedups[idx["+simd"]] > iir.Speedups[idx["+fusion"]]*1.3 {
		t.Errorf("iirsos: the recurrence must not gain much from SIMD: %+v", iir.Speedups)
	}
}

// TestFig3WidthScaling checks the width sweep: speedup must not decrease
// with lane count, and data-parallel kernels must actually scale.
func TestFig3WidthScaling(t *testing.T) {
	rows, err := Fig3(smallScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for i := 1; i < len(r.Speedups); i++ {
			if r.Speedups[i] < r.Speedups[i-1]*0.98 {
				t.Errorf("%s: speedup drops from W=%d (%.2fx) to W=%d (%.2fx)",
					r.Kernel, r.Widths[i-1], r.Speedups[i-1], r.Widths[i], r.Speedups[i])
			}
		}
		if r.Kernel == "fir" {
			first, last := r.Speedups[0], r.Speedups[len(r.Speedups)-1]
			if last < first*2 {
				t.Errorf("fir: W=8 (%.2fx) should at least double W=1 (%.2fx)", last, first)
			}
		}
		if r.Kernel == "iirsos" {
			first, last := r.Speedups[0], r.Speedups[len(r.Speedups)-1]
			if last > first*1.5 {
				t.Errorf("iirsos: recurrence should not scale with width: %.2fx -> %.2fx", first, last)
			}
		}
	}
}

// TestTable2CodeSize sanity-checks the static code-size comparison.
func TestTable2CodeSize(t *testing.T) {
	rows, err := Table2(pdesc.Builtin("dspasip"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BaselineSize <= 0 || r.ProposedSize <= 0 {
			t.Errorf("%s: degenerate sizes %d/%d", r.Kernel, r.BaselineSize, r.ProposedSize)
		}
		// The proposed pipeline trades code size for speed (vector main
		// loop + scalar epilogue); it must stay within a sane factor.
		if r.Ratio > 6 {
			t.Errorf("%s: proposed code %0.1fx larger than baseline", r.Kernel, r.Ratio)
		}
	}
}

// TestRenderers exercises the text renderers.
func TestRenderers(t *testing.T) {
	t1, err := Table1(pdesc.Builtin("dspasip"), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Table1Text(t1); len(s) == 0 || !contains(s, "speedup") {
		t.Error("Table1Text malformed")
	}
	t2, err := Table2(pdesc.Builtin("dspasip"))
	if err != nil {
		t.Fatal(err)
	}
	if s := Table2Text(t2); !contains(s, "code size") {
		t.Error("Table2Text malformed")
	}
	f2, err := Fig2(pdesc.Builtin("dspasip"), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Fig2Text(f2); !contains(s, "full") {
		t.Error("Fig2Text malformed")
	}
	f3, err := Fig3(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Fig3Text(f3); !contains(s, "W=8") {
		t.Error("Fig3Text malformed")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestKernelByName(t *testing.T) {
	if KernelByName("fir") == nil || KernelByName("nope") != nil {
		t.Error("KernelByName lookup broken")
	}
	if len(Kernels()) != 6 {
		t.Error("the paper evaluates six benchmarks")
	}
}

func TestSelectKernels(t *testing.T) {
	if ks, err := SelectKernels(nil); err != nil || len(ks) != len(Kernels()) {
		t.Errorf("empty selection = %d kernels, %v; want the whole suite", len(ks), err)
	}
	ks, err := SelectKernels([]string{"fft", "fir"})
	if err != nil || len(ks) != 2 || ks[0].Name != "fft" || ks[1].Name != "fir" {
		t.Errorf("subset not resolved in order: %v", err)
	}
	if _, err := SelectKernels([]string{"fir", "nope"}); err == nil || err.Error() != `unknown kernel "nope"` {
		t.Errorf("unknown kernel: err = %v", err)
	}
}

// TestFig4MemorySensitivity checks the extension study: the fusion-heavy
// streaming kernels gain speedup as memory gets slower (their win is
// avoided temp traffic), and nothing degenerates.
func TestFig4MemorySensitivity(t *testing.T) {
	rows, err := Fig4(smallScale)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Kernel] = r
		for i, s := range r.Speedups {
			if s <= 1 {
				t.Errorf("%s mem=%d: proposed not faster (%.2fx)", r.Kernel, r.MemCosts[i], s)
			}
		}
	}
	for _, name := range []string{"fir", "cfir"} {
		r := byName[name]
		first, last := r.Speedups[0], r.Speedups[len(r.Speedups)-1]
		if last <= first {
			t.Errorf("%s: fusion gain should grow with memory cost (%.2fx -> %.2fx)", name, first, last)
		}
	}
}

// TestTable3CompilerActivity checks what the compiler does per kernel.
func TestTable3CompilerActivity(t *testing.T) {
	rows, err := Table3(pdesc.Builtin("dspasip"))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Kernel] = r
	}
	if byName["fir"].VectorizedLoops == 0 {
		t.Error("fir must vectorize")
	}
	if byName["iirsos"].Intrinsics["fms"] == 0 {
		t.Errorf("iirsos should use fms: %v", byName["iirsos"].Intrinsics)
	}
	if byName["cfir"].Intrinsics["vcmac"] == 0 && byName["cfir"].Intrinsics["vcconjmul"] == 0 {
		t.Errorf("cfir should use vector complex instructions: %v", byName["cfir"].Intrinsics)
	}
	if byName["fft"].Intrinsics["cmul"] == 0 {
		t.Errorf("fft should use cmul: %v", byName["fft"].Intrinsics)
	}
	if s := Table3Text(rows); !contains(s, "vec loops") {
		t.Error("Table3Text malformed")
	}
}

// TestCSVRenderers exercises every CSV renderer.
func TestCSVRenderers(t *testing.T) {
	p := pdesc.Builtin("dspasip")
	t1, err := Table1(p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Table1CSV(t1); !contains(s, "kernel,size,baseline_cycles") || !contains(s, "fir,") {
		t.Errorf("Table1CSV malformed:\n%s", s)
	}
	f2, err := Fig2(p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Fig2CSV(f2); !contains(s, "kernel,variant,cycles,speedup") {
		t.Error("Fig2CSV malformed")
	}
	f3, err := Fig3(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Fig3CSV(f3); !contains(s, "simd_width") {
		t.Error("Fig3CSV malformed")
	}
	f4, err := Fig4(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Fig4CSV(f4); !contains(s, "mem_cost") {
		t.Error("Fig4CSV malformed")
	}
	t2, err := Table2(p)
	if err != nil {
		t.Fatal(err)
	}
	if s := Table2CSV(t2); !contains(s, "baseline_size") {
		t.Error("Table2CSV malformed")
	}
	t3, err := Table3(p)
	if err != nil {
		t.Fatal(err)
	}
	if s := Table3CSV(t3); !contains(s, "vectorized_loops") {
		t.Error("Table3CSV malformed")
	}
}

// TestShippedKernelSourcesInSync keeps benchmarks/*.m aligned with the
// embedded kernel sources (regenerate with `go run ./cmd/benchsrc`).
func TestShippedKernelSourcesInSync(t *testing.T) {
	for _, k := range Kernels() {
		path := filepath.Join("..", "..", "benchmarks", k.Name+".m")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (run `go run ./cmd/benchsrc`)", path, err)
			continue
		}
		if !strings.Contains(string(data), k.Source) {
			t.Errorf("%s out of sync with the embedded kernel (run `go run ./cmd/benchsrc`)", path)
		}
	}
}
