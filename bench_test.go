package mat2c_test

// Benchmark harness regenerating every table and figure of the
// evaluation (see DESIGN.md and EXPERIMENTS.md):
//
//	go test -bench=Table1 .     headline speedups (Table I)
//	go test -bench=Fig2 .       feature ablation (Figure 2)
//	go test -bench=Fig3 .       SIMD width sweep (Figure 3)
//	go test -bench=Table2 .     static code size (Table II)
//	go test -bench=Compile .    compiler throughput (not a paper metric)
//
// Each evaluation benchmark reports the model's cycle count for its
// configuration as the "cycles" metric (the quantity the paper's tables
// contain) and, where meaningful, the static code size as "codesize".
// ns/op measures host wall-clock, which is not a paper metric: a
// compile plus a run that, after the first iteration, is priced from
// the first one's events (bench.Kernel.Simulate). Run cmd/benchtab for
// the assembled tables.

import (
	"context"
	"fmt"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/pdesc"
)

// benchScale shrinks problem sizes under -short.
func benchScale() float64 {
	if testing.Short() {
		return 0.25
	}
	return 1.0
}

func runConfig(b *testing.B, k *bench.Kernel, cfg core.Config, scale float64) {
	b.Helper()
	n := bench.SizeFor(k, scale)
	var st *bench.Stats
	var err error
	for i := 0; i < b.N; i++ {
		st, err = bench.RunPipelineCached(context.Background(), nil, k, cfg, n)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Cycles), "cycles")
	b.ReportMetric(float64(st.CodeSize), "codesize")
}

// BenchmarkTable1 regenerates Table I: every kernel under the baseline
// and the proposed pipeline on the DSP ASIP.
func BenchmarkTable1(b *testing.B) {
	proc := pdesc.Builtin("dspasip")
	scale := benchScale()
	for _, k := range bench.Kernels() {
		k := k
		b.Run(k.Name+"/baseline", func(b *testing.B) { runConfig(b, k, core.Baseline(proc), scale) })
		b.Run(k.Name+"/proposed", func(b *testing.B) { runConfig(b, k, core.Proposed(proc), scale) })
	}
}

// BenchmarkFig2 regenerates Figure 2: the per-feature ablation on the
// DSP ASIP (fusion, SIMD, custom instructions, full).
func BenchmarkFig2(b *testing.B) {
	proc := pdesc.Builtin("dspasip")
	scale := benchScale()
	for _, k := range bench.Kernels() {
		k := k
		for _, ac := range bench.AblationConfigs() {
			ac := ac
			b.Run(k.Name+"/"+ac.Name, func(b *testing.B) { runConfig(b, k, ac.Cfg(proc), scale) })
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: the SIMD width sweep (full
// pipeline on the ASIP family with 1, 2, 4 and 8 float lanes).
func BenchmarkFig3(b *testing.B) {
	scale := benchScale()
	for _, k := range bench.Kernels() {
		k := k
		for _, p := range bench.WidthTargets() {
			p := p
			b.Run(k.Name+"/"+p.Name, func(b *testing.B) { runConfig(b, k, core.Proposed(p), scale) })
		}
	}
}

// BenchmarkTable2 regenerates Table II: static code size. The reported
// "codesize" metric is the table's content; cycles are incidental.
func BenchmarkTable2(b *testing.B) {
	proc := pdesc.Builtin("dspasip")
	for _, k := range bench.Kernels() {
		k := k
		b.Run(k.Name+"/baseline", func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(k.Source, k.Entry, k.Params, core.Baseline(proc))
				if err != nil {
					b.Fatal(err)
				}
				size = res.CodeSize()
			}
			b.ReportMetric(float64(size), "codesize")
		})
		b.Run(k.Name+"/proposed", func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(k.Source, k.Entry, k.Params, core.Proposed(proc))
				if err != nil {
					b.Fatal(err)
				}
				size = res.CodeSize()
			}
			b.ReportMetric(float64(size), "codesize")
		})
	}
}

// BenchmarkCompile measures compiler throughput through the public API
// (front end + middle end + both backends), per kernel.
func BenchmarkCompile(b *testing.B) {
	for _, k := range bench.Kernels() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mat2c.Compile(k.Source, k.Entry, k.Params,
					mat2c.Options{Target: "dspasip"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures raw cycle-model execution throughput
// (host ns per simulated instruction) on the FIR kernel.
func BenchmarkSimulator(b *testing.B) {
	k := bench.KernelByName("fir")
	proc := pdesc.Builtin("dspasip")
	res, err := core.Compile(k.Source, k.Entry, k.Params, core.Proposed(proc))
	if err != nil {
		b.Fatal(err)
	}
	args := k.Inputs(1024)
	b.ResetTimer()
	var executed int64
	for i := 0; i < b.N; i++ {
		_, cycles, err := res.Run(args...)
		if err != nil {
			b.Fatal(err)
		}
		executed += cycles
	}
	b.ReportMetric(float64(executed)/float64(b.N), "cycles/op")
}

// BenchmarkFig4 regenerates the memory-cost sensitivity study
// (extension experiment; see EXPERIMENTS.md).
func BenchmarkFig4(b *testing.B) {
	scale := benchScale()
	for _, k := range bench.Kernels() {
		k := k
		for _, c := range bench.MemCostSweep {
			c := c
			b.Run(fmt.Sprintf("%s/mem%d", k.Name, c), func(b *testing.B) {
				p := bench.MemVariant(c)
				b.Run("baseline", func(b *testing.B) { runConfig(b, k, core.Baseline(p), scale) })
				b.Run("proposed", func(b *testing.B) { runConfig(b, k, core.Proposed(p), scale) })
			})
		}
	}
}
