package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"mat2c/internal/core"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

// VMBenchRow is one kernel's simulator-throughput measurement: the
// full proposed pipeline's program executed under the compiled and
// reference engines on the same inputs, reported as simulated
// instructions per wall-clock second.
type VMBenchRow struct {
	Kernel                string  `json:"kernel"`
	Size                  int     `json:"size"`
	InstrsPerRun          int64   `json:"instrs_per_run"`
	CyclesPerRun          int64   `json:"cycles_per_run"`
	CompiledBlocks        int     `json:"compiled_blocks"`
	CompiledRuns          int     `json:"compiled_runs"`
	CompiledInstrsPerSec  float64 `json:"compiled_instrs_per_sec"`
	ReferenceRuns         int     `json:"reference_runs"`
	ReferenceInstrsPerSec float64 `json:"reference_instrs_per_sec"`
	// CompiledSpeedup is compiled vs reference throughput.
	CompiledSpeedup float64 `json:"compiled_speedup"`
}

// VMBenchReport is the payload written to BENCH_vm.json so simulator
// throughput is tracked from run to run.
type VMBenchReport struct {
	Target string       `json:"target"`
	Scale  float64      `json:"scale"`
	GoOS   string       `json:"goos"`
	GoArch string       `json:"goarch"`
	Rows   []VMBenchRow `json:"rows"`
}

// measureEngine runs the machine repeatedly for at least minTime and
// returns (runs, instructions/second).
func measureEngine(m *vm.Machine, prog *core.Result, args []interface{}, engine string, minTime time.Duration) (int, float64, error) {
	m.Engine = engine
	// One untimed run translates the program and warms its scratch pool.
	if _, err := prog.RunOn(m, cloneArgs(args)...); err != nil {
		return 0, 0, err
	}
	perRun := m.Executed
	runs := 0
	start := time.Now()
	for {
		if _, err := prog.RunOn(m, cloneArgs(args)...); err != nil {
			return 0, 0, err
		}
		runs++
		if time.Since(start) >= minTime && runs >= 3 {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return runs, float64(perRun) * float64(runs) / elapsed, nil
}

// VMBench measures simulated-instruction throughput for every bench
// kernel on proc (full proposed pipeline) under the compiled and
// reference engines. minTime bounds the per-engine measurement window;
// scale scales problem sizes as in Table1.
func VMBench(proc *pdesc.Processor, scale float64, minTime time.Duration, opts ...Opt) (*VMBenchReport, error) {
	o := getOptions(opts)
	ks := Kernels()
	rows := make([]VMBenchRow, len(ks))
	err := forEach(len(ks), o.jobs, func(i int) error {
		k := ks[i]
		n := SizeFor(k, scale)
		res, err := core.CompileContext(o.ctx, k.Source, k.Entry, k.Params, core.Proposed(proc))
		if err != nil {
			return fmt.Errorf("%s: compile: %w", k.Name, err)
		}
		args := k.Inputs(n)
		m := vm.NewMachine(proc)

		// The engines are measured in alternating rounds and the best
		// window per engine is kept: on a shared machine the noise
		// floor between consecutive windows is large, and best-of-rounds
		// is robust to one engine landing in a slow window.
		const rounds = 3
		var cRuns, rRuns int
		var cRate, rRate float64
		var instrs, cycles int64
		for round := 0; round < rounds; round++ {
			runs, r, err := measureEngine(m, res, args, vm.EngineCompiled, minTime/rounds)
			if err != nil {
				return fmt.Errorf("%s: compiled: %w", k.Name, err)
			}
			if r > cRate {
				cRuns, cRate = runs, r
			}
			instrs, cycles = m.Executed, m.Cycles

			runs, r, err = measureEngine(m, res, args, vm.EngineReference, minTime/rounds)
			if err != nil {
				return fmt.Errorf("%s: reference: %w", k.Name, err)
			}
			if r > rRate {
				rRuns, rRate = runs, r
			}
		}
		blocks := vm.CompiledFor(res.Program).Blocks()
		rows[i] = VMBenchRow{
			Kernel: k.Name, Size: n,
			InstrsPerRun: instrs, CyclesPerRun: cycles, CompiledBlocks: blocks,
			CompiledRuns: cRuns, CompiledInstrsPerSec: cRate,
			ReferenceRuns: rRuns, ReferenceInstrsPerSec: rRate,
			CompiledSpeedup: cRate / rRate,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &VMBenchReport{
		Target: proc.Name, Scale: scale,
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Rows: rows,
	}, nil
}

// VMBenchText renders the throughput report.
func VMBenchText(rep *VMBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "VM throughput on %s (simulated instructions/sec; compiled = closure-threaded translation, reference = oracle interpreter)\n", rep.Target)
	fmt.Fprintf(&b, "%-8s %8s %12s %14s %14s %9s %6s\n", "kernel", "size", "instrs/run", "compiled", "reference", "comp/ref", "blocks")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-8s %8d %12d %14.3e %14.3e %8.1fx %6d\n",
			r.Kernel, r.Size, r.InstrsPerRun, r.CompiledInstrsPerSec, r.ReferenceInstrsPerSec, r.CompiledSpeedup, r.CompiledBlocks)
	}
	return b.String()
}
