// Command benchtab regenerates the paper's evaluation tables and
// figures on the cycle-model ASIP:
//
//	benchtab -table1      headline speedups (the abstract's "2x-30x")
//	benchtab -table2      static code size comparison
//	benchtab -fig2        per-feature ablation (fusion / SIMD / custom instr)
//	benchtab -fig3        SIMD-width sweep
//	benchtab -all         everything
//	benchtab -vmbench f   measure simulator throughput, write BENCH_vm.json to f
//
// Use -scale to shrink/grow problem sizes (1.0 = paper scale) and -proc
// to retarget Table I/II and Fig. 2. -jobs runs independent kernels on
// a bounded worker pool (results stay in deterministic order).
// -timeout bounds the whole run with one wall-clock deadline.
// -cpuprofile/-memprofile write pprof profiles. Output is formatted text by default; -csv
// emits CSV per table, -json emits one machine-readable document for
// all requested tables (for BENCH_*.json trend tracking).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
	"mat2c/internal/bench"
	"mat2c/internal/pdesc"
	"mat2c/internal/profile"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		t1      = flag.Bool("table1", false, "print Table I (headline speedups)")
		t2      = flag.Bool("table2", false, "print Table II (code size)")
		t3      = flag.Bool("table3", false, "print Table III (compiler activity, extension)")
		f2      = flag.Bool("fig2", false, "print Figure 2 (feature ablation)")
		f3      = flag.Bool("fig3", false, "print Figure 3 (SIMD width sweep)")
		f4      = flag.Bool("fig4", false, "print Figure 4 (memory-cost sensitivity, extension)")
		all     = flag.Bool("all", false, "print everything")
		scale   = flag.Float64("scale", 1.0, "problem size multiplier (1.0 = paper scale)")
		proc    = flag.String("proc", "dspasip", "target for Table I/II and Fig. 2")
		csv     = flag.Bool("csv", false, "emit CSV instead of formatted tables")
		jsonOut = flag.Bool("json", false, "emit one JSON report for the requested tables")
		jobs    = flag.Int("jobs", 1, "kernel-level worker pool size (1 = sequential)")
		timeout = flag.Duration("timeout", 0, "bound total table-generation wall time (e.g. 5m; 0 = none)")
		vmbench = flag.String("vmbench", "", "measure simulator throughput and write the JSON report to this file (- for stdout)")
		vmtime  = flag.Duration("vmtime", 250*time.Millisecond, "per-engine measurement window for -vmbench")
		vmgate  = flag.Float64("vmgate", 0, "fail -vmbench unless compiled/reference throughput on fir is at least this ratio (0 = no gate; CI uses 2, far below the committed ratio, to catch only collapses, not noise)")

		cacheDir   = flag.String("cachedir", "", "durable artifact store directory: compilations persist there and warm later runs")
		cacheBytes = flag.Int64("cachebytes", 0, "artifact store byte budget (0 = default 512 MiB; needs -cachedir)")
		cacheStats = flag.Bool("cachestats", false, "print cache-tier statistics to stderr after the run")
		artRemote  = flag.String("artifactremote", "", "blob-protocol `URL` of a fleet-shared artifact cache (e.g. http://coordinator:8723/artifact)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if !*t1 && !*t2 && !*t3 && !*f2 && !*f3 && !*f4 && !*all && *vmbench == "" {
		*all = true
	}
	if *csv && *jsonOut {
		return fatal(fmt.Errorf("-csv and -json are mutually exclusive"))
	}
	stop, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return fatal(err)
	}
	defer stop()

	p, err := pdesc.Resolve(*proc)
	if err != nil {
		return fatal(err)
	}
	report := &bench.Report{Proc: p.Name, Scale: *scale}
	// One cache serves every table, so each distinct (program, case)
	// is simulated once for the whole run.
	cache := mat2c.NewCache(0)
	if *cacheDir != "" {
		store, err := artifact.OpenDisk(*cacheDir, *cacheBytes)
		if err != nil {
			return fatal(err)
		}
		defer store.Close()
		cache.SetStore(store)
	}
	if *artRemote != "" {
		cache.SetRemoteStore(remote.New(*artRemote, remote.Options{}))
	}
	defer func() {
		// Wait for asynchronous store write-throughs so the run's
		// artifacts are durable before the process exits, then report.
		cache.Flush()
		if *cacheStats {
			st, _ := json.MarshalIndent(cache.Stats(), "", "  ")
			fmt.Fprintf(os.Stderr, "cache: %s\n", st)
		}
	}()
	opts := []bench.Opt{bench.WithJobs(*jobs), bench.WithCache(cache)}
	if *timeout > 0 {
		// One deadline spans every requested table: compilation observes
		// it between stages, the simulator polls it while executing.
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts = append(opts, bench.WithContext(ctx))
	}

	if *all || *t1 {
		rows, err := bench.Table1(p, *scale, opts...)
		if err != nil {
			return fatal(err)
		}
		switch {
		case *jsonOut:
			report.Table1 = rows
		case *csv:
			fmt.Print(bench.Table1CSV(rows))
		default:
			fmt.Println(bench.Table1Text(rows))
		}
	}
	if *all || *f2 {
		rows, err := bench.Fig2(p, *scale, opts...)
		if err != nil {
			return fatal(err)
		}
		switch {
		case *jsonOut:
			report.Fig2 = rows
		case *csv:
			fmt.Print(bench.Fig2CSV(rows))
		default:
			fmt.Println(bench.Fig2Text(rows))
		}
	}
	if *all || *f3 {
		rows, err := bench.Fig3(*scale, opts...)
		if err != nil {
			return fatal(err)
		}
		switch {
		case *jsonOut:
			report.Fig3 = rows
		case *csv:
			fmt.Print(bench.Fig3CSV(rows))
		default:
			fmt.Println(bench.Fig3Text(rows))
		}
	}
	if *all || *f4 {
		rows, err := bench.Fig4(*scale, opts...)
		if err != nil {
			return fatal(err)
		}
		switch {
		case *jsonOut:
			report.Fig4 = rows
		case *csv:
			fmt.Print(bench.Fig4CSV(rows))
		default:
			fmt.Println(bench.Fig4Text(rows))
		}
	}
	if *all || *t2 {
		rows, err := bench.Table2(p, opts...)
		if err != nil {
			return fatal(err)
		}
		switch {
		case *jsonOut:
			report.Table2 = rows
		case *csv:
			fmt.Print(bench.Table2CSV(rows))
		default:
			fmt.Println(bench.Table2Text(rows))
		}
	}
	if *all || *t3 {
		rows, err := bench.Table3(p, opts...)
		if err != nil {
			return fatal(err)
		}
		switch {
		case *jsonOut:
			report.Table3 = rows
		case *csv:
			fmt.Print(bench.Table3CSV(rows))
		default:
			fmt.Println(bench.Table3Text(rows))
		}
	}

	if *jsonOut {
		if err := report.WriteJSON(os.Stdout); err != nil {
			return fatal(err)
		}
	}

	if *vmbench != "" {
		rep, err := bench.VMBench(p, *scale, *vmtime, opts...)
		if err != nil {
			return fatal(err)
		}
		if *vmbench == "-" {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return fatal(err)
			}
		} else {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return fatal(err)
			}
			if err := os.WriteFile(*vmbench, append(data, '\n'), 0o644); err != nil {
				return fatal(err)
			}
			fmt.Fprint(os.Stderr, bench.VMBenchText(rep))
		}
		if *vmgate > 0 {
			gated := false
			for _, r := range rep.Rows {
				if r.Kernel != "fir" {
					continue
				}
				gated = true
				if r.CompiledSpeedup < *vmgate {
					return fatal(fmt.Errorf("vmgate: compiled/reference on fir = %.2f, below gate %.2f (the compiled engine has collapsed)", r.CompiledSpeedup, *vmgate))
				}
			}
			if !gated {
				return fatal(fmt.Errorf("vmgate: no fir row in the vmbench report"))
			}
		}
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	return 1
}
