// Command e2ebench is the repository's end-to-end benchmark: it builds
// asipdse and mat2cd from the tree, drives them as child processes the
// way users run them — design-space sweeps with a cold, warm-disk or
// remote-warm cache, and a /run request loop against a long-lived
// daemon — checks every output, and prints each metric by name with its
// unit. With -trace 1 it instead runs each workload in-process and
// reports self time per layer. See README.md in this directory.
//
//	e2ebench -workload dse-warm -seed 1         one workload, end to end
//	e2ebench -seed 1 -out e2e.json              every workload, records saved
//	e2ebench -seed 1 -trace 1                   per-layer breakdown
//	e2ebench -compare parent/ change/           judge a change against its parent
//
// A benchmark runner invokes BENCHMARK.json's command once per workload
// as `bash cmd/e2ebench/run.sh --workload W --seed N --seconds S
// --trace T`, with S the file's run_seconds; -seconds defaults to that
// same value, so the run length is set in one place.
//
// Run it from the repository root. The last line of standard output is
// a JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// status is non-zero when any output was wrong or any operation failed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mat2c/internal/e2ebench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run: dse-cold, dse-warm, dse-remote, run-loop, or all")
		seed     = flag.Uint64("seed", 1, "seed for the generated inputs (sweep cost override, request mix)")
		seconds  = flag.Float64("seconds", 0, "length of each workload's measured phase (default BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 0, "1 runs the workloads in-process and reports per-layer metrics")
		out      = flag.String("out", "", "also write the run records to this JSON file (input to -compare)")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "e2ebench"), "scratch directory for binaries, caches, logs and traces")
		compare  = flag.Bool("compare", false, "compare two directories of -out records under BENCHMARK.json's bounds: e2ebench -compare parent/ change/")
	)
	flag.Parse()

	// The children and the in-process passes must run the defaults users
	// get; the VM reads these variables at start-up, so re-run without
	// them rather than unset them too late.
	if env, found := e2ebench.ScrubbedEnviron(); found {
		return reexec(env)
	}

	b, err := e2ebench.LoadBenchmark("BENCHMARK.json")
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fatal(errors.New("usage: e2ebench -compare parent/ change/"))
		}
		worse, err := e2ebench.Compare(os.Stdout, b, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	workloads := e2ebench.Workloads
	if *workload != "all" {
		workloads = []string{*workload}
	}
	if *seconds == 0 {
		*seconds = float64(b.RunSeconds)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var bin e2ebench.Binaries
	if *trace == 0 {
		var err error
		if bin, err = e2ebench.Build(ctx, ".", filepath.Join(*workdir, "bin")); err != nil {
			return fatal(err)
		}
	}
	var recs []*e2ebench.Record
	status := 0
	for _, w := range workloads {
		cfg := e2ebench.Config{
			Workload: w,
			Seed:     *seed,
			Seconds:  time.Duration(*seconds * float64(time.Second)),
			WorkDir:  *workdir,
			Log:      os.Stderr,
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %s (seed %d, %gs, trace %d)\n", w, *seed, *seconds, *trace)
		var rec *e2ebench.Record
		var err error
		if *trace == 1 {
			rec, err = e2ebench.Trace(ctx, cfg)
		} else {
			rec, err = e2ebench.Run(ctx, cfg, bin)
		}
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", w, err))
		}
		recs = append(recs, rec)
		if !rec.Result.Correct {
			status = 1
		}
		rec.Print(os.Stdout)
		fmt.Println(rec.ResultLine())
	}
	if err := e2ebench.CheckReports(recs); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		status = 1
	}
	if *out != "" {
		if err := e2ebench.WriteRecords(*out, recs); err != nil {
			return fatal(err)
		}
	}
	return status
}

// reexec runs this program again with env and returns its exit status.
func reexec(env []string) int {
	self, err := os.Executable()
	if err != nil {
		return fatal(err)
	}
	cmd := exec.Command(self, os.Args[1:]...)
	cmd.Env = env
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		for s := range sigs {
			cmd.Process.Signal(s) // the child shuts its own children down
		}
	}()
	if err := cmd.Wait(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		return fatal(err)
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	return 1
}
