// Command asipdse runs design-space exploration over generated
// processor variants: it enumerates candidates from a sweep
// specification, compiles and simulates the benchmark kernel suite
// against each one on a worker pool, and reports the Pareto frontier
// over (total cycles, instruction-set cost).
//
//	asipdse                                sweep the default axes over dspasip
//	asipdse -procs dspasip,wide8           sweep multiple bases, one merged frontier
//	asipdse -sweep sweep.json              load the axes from a JSON spec
//	asipdse -kernels fir,cfir -scale 0.1   restrict the suite / shrink sizes
//	asipdse -jobs 4 -json                  bound the pool, emit the JSON report
//	asipdse -isx -isx-top 2                seed the sweep with mined extensions
//	asipdse -cachedir .mat2c-cache         persist compiled artifacts across runs
//	asipdse -cpuprofile dse.pprof          profile the exploration
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	mat2c "mat2c"
	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
	"mat2c/internal/core"
	"mat2c/internal/dse"
	"mat2c/internal/profile"
	"mat2c/internal/vm"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		procs      = flag.String("procs", "", "comma-separated base targets to sweep (default: the sweep spec's base, or dspasip)")
		sweep      = flag.String("sweep", "", "JSON sweep specification file (default: built-in axes)")
		jobs       = flag.Int("jobs", 0, "worker pool size (default: GOMAXPROCS)")
		scale      = flag.Float64("scale", 0.25, "problem size multiplier for the kernel suite")
		kernels    = flag.String("kernels", "", "comma-separated kernel subset (default: full suite)")
		jsonOut    = flag.Bool("json", false, "emit the machine-readable JSON report")
		csvOut     = flag.Bool("csv", false, "emit one CSV row per variant")
		isxSeed    = flag.Bool("isx", false, "seed the sweep with mined instruction-set extensions (see isxmine)")
		isxTop     = flag.Int("isx-top", 0, "how many mined candidates seed the sweep (default 3; implies -isx)")
		isxMax     = flag.Int("isx-maxnodes", 0, "mined pattern size bound (default 4; implies -isx)")
		cacheDir   = flag.String("cachedir", "", "durable artifact store directory: compiled artifacts persist there and warm later runs")
		cacheBytes = flag.Int64("cachebytes", 0, "artifact store byte budget (0 = default 512 MiB; needs -cachedir)")
		cacheStats = flag.Bool("cachestats", false, "print cache-tier, compile-memo and VM translation statistics to stderr after the run")
		artRemote  = flag.String("artifactremote", "", "blob-protocol `URL` of a fleet-shared artifact cache (e.g. http://coordinator:8723/artifact)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *jsonOut && *csvOut {
		return fatal(fmt.Errorf("-json and -csv are mutually exclusive"))
	}
	stop, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return fatal(err)
	}
	defer stop()

	base := &dse.Sweep{}
	if *sweep != "" {
		base, err = dse.LoadSweep(*sweep)
		if err != nil {
			return fatal(err)
		}
	}
	if *isxSeed || *isxTop > 0 || *isxMax > 0 {
		if base.ISX == nil {
			base.ISX = &dse.ISXSeed{}
		}
		if *isxTop > 0 {
			base.ISX.Top = *isxTop
		}
		if *isxMax > 0 {
			base.ISX.MaxNodes = *isxMax
		}
	}
	var sweeps []*dse.Sweep
	if *procs != "" {
		for _, p := range strings.Split(*procs, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			sw := *base
			sw.Base = p
			sweeps = append(sweeps, &sw)
		}
	}
	if len(sweeps) == 0 {
		sweeps = []*dse.Sweep{base}
	}

	opts := dse.Options{Jobs: *jobs, Scale: *scale}
	if *kernels != "" {
		for _, k := range strings.Split(*kernels, ",") {
			if k = strings.TrimSpace(k); k != "" {
				opts.Kernels = append(opts.Kernels, k)
			}
		}
	}
	var cache *mat2c.Cache
	if *cacheDir != "" || *artRemote != "" || *cacheStats {
		cache = mat2c.NewCache(0)
		opts.Cache = cache
	}
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

	rep, err := dse.Explore(sweeps, opts)
	if cache != nil {
		// Wait for asynchronous store write-throughs so the run's
		// artifacts are durable before the process exits.
		cache.Flush()
		if *cacheStats {
			// The cache line stays last: tools parse everything after
			// "cache: " as one JSON document.
			st, _ := json.MarshalIndent(core.MemoStats(), "", "  ")
			fmt.Fprintf(os.Stderr, "compile_memo: %s\n", st)
			st, _ = json.MarshalIndent(vm.CompiledStats(), "", "  ")
			fmt.Fprintf(os.Stderr, "vm_compiled: %s\n", st)
			st, _ = json.MarshalIndent(cache.Stats(), "", "  ")
			fmt.Fprintf(os.Stderr, "cache: %s\n", st)
		}
	}
	if err != nil {
		return fatal(err)
	}
	switch {
	case *jsonOut:
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return fatal(err)
		}
	case *csvOut:
		fmt.Print(rep.CSV())
	default:
		fmt.Print(rep.Text())
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "asipdse:", err)
	return 1
}
