// Command asipsim compiles a MATLAB function and executes it on the
// cycle-model ASIP simulator, printing results and cycle statistics.
//
// Usage:
//
//	asipsim -params 'real(1,:), real' -args '[[1,2,3,4], 2.5]' kernel.m
//
// Arguments are a JSON array with one element per parameter:
//
//	2.5                                  scalar (real or int per the type)
//	[1, 2, 3]                            real row vector
//	{"rows":2,"cols":2,"data":[1,2,3,4]} real matrix (column-major)
//	{"complex":[[1,2],[3,-1]]}           complex row vector (re,im pairs)
//
// Flags mirror the mat2c command: -proc, -entry, -baseline, -novec,
// -nointrin, plus -classes to dump per-cost-class execution counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	mat2c "mat2c"
	"mat2c/internal/service"
)

func main() {
	var (
		params   = flag.String("params", "", "entry parameter types")
		argsJSON = flag.String("args", "[]", "JSON argument list")
		entry    = flag.String("entry", "", "entry function name")
		proc     = flag.String("proc", "dspasip", "target processor")
		baseline = flag.Bool("baseline", false, "MATLAB-Coder-style baseline pipeline")
		novec    = flag.Bool("novec", false, "disable auto-vectorization")
		nointrin = flag.Bool("nointrin", false, "disable custom-instruction selection")
		classes  = flag.Bool("classes", false, "print per-class execution counts")
		trace    = flag.Bool("trace", false, "write an instruction trace to stderr (large!)")
		timeout  = flag.Duration("timeout", 0, "bound compile+simulate wall time (e.g. 30s; 0 = none)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asipsim [flags] kernel.m  (see asipsim -h)")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	types, err := mat2c.ParseTypes(*params)
	if err != nil {
		fatal(err)
	}
	p, err := mat2c.LoadProcessor(*proc)
	if err != nil {
		fatal(err)
	}
	// One deadline covers compilation and simulation: the pipeline
	// observes it between stages, the VM polls it while executing.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := mat2c.CompileContext(ctx, string(src), *entry, types, mat2c.Options{
		Processor:    p,
		Baseline:     *baseline,
		NoVectorize:  *novec,
		NoIntrinsics: *nointrin,
		SkipC:        true,
	})
	if err != nil {
		fatal(err)
	}

	args, err := service.DecodeArgs(*argsJSON, types)
	if err != nil {
		fatal(fmt.Errorf("-args: %w", err))
	}
	var out []interface{}
	var stats *mat2c.Stats
	if *trace {
		out, stats, err = res.RunTracedContext(ctx, os.Stderr, args...)
	} else {
		out, stats, err = res.RunWithStatsContext(ctx, args...)
	}
	if err != nil {
		fatal(err)
	}

	for i, v := range out {
		fmt.Printf("result %d: %s\n", i, formatValue(v))
	}
	fmt.Printf("cycles: %d\n", stats.Cycles)
	fmt.Printf("instructions: %d\n", stats.Executed)
	fmt.Printf("vectorized loops: %d\n", res.VectorizedLoops())
	if *classes {
		keys := make([]string, 0, len(stats.ClassCounts))
		for k := range stats.ClassCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-12s %d\n", k, stats.ClassCounts[k])
		}
	}
}

func formatValue(v interface{}) string {
	switch v := v.(type) {
	case *mat2c.Array:
		if v.C != nil {
			return fmt.Sprintf("complex %dx%d %v", v.Rows, v.Cols, v.C)
		}
		return fmt.Sprintf("%dx%d %v", v.Rows, v.Cols, v.F)
	default:
		return fmt.Sprintf("%v", v)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asipsim:", err)
	os.Exit(1)
}
