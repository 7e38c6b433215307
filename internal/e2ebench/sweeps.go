package e2ebench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mat2c/internal/dse"
)

// setupReps is how many times a run repeats its workload's set-up; the
// median is setup_s and the last set-up's state is what gets measured.
func setupReps(cfg Config) int {
	if cfg.Quick {
		return 1
	}
	return 3
}

// Run executes one untraced workload against the built binaries and
// returns its end-to-end record. An error means the benchmark could not
// run at all; failed or wrong operations are recorded in the result.
func Run(ctx context.Context, cfg Config, bin Binaries) (*Record, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rec := newRecord(cfg, false)
	switch cfg.Workload {
	case "dse-cold", "dse-warm", "dse-remote":
		err = runSweeps(ctx, cfg, bin, dir, rec)
	case "run-loop":
		err = runLoop(ctx, cfg, bin, dir, rec)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, Workloads)
	}
	if err != nil {
		return nil, err
	}
	rec.finish(EndToEnd)
	return rec, nil
}

// sweepRun is one asipdse process with its parsed report.
type sweepRun struct {
	procRun
	normalized []byte // the report without its run-dependent fields
	variants   int
	evals      int // variant × kernel evaluations
	lookups    uint64
	hits       uint64
	cycles     []float64 // total cycles of every base-cost variant
	codeSize   int       // code size summed over the base-cost variants
}

// runSweeps runs one of the sweep workloads: set-up, then timed asipdse
// processes until the measured phase is over.
func runSweeps(ctx context.Context, cfg Config, bin Binaries, dir string, rec *Record) error {
	spec, err := SweepSpec(cfg.Seed, cfg.Quick)
	if err != nil {
		return err
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		return err
	}
	scale := sweepScale
	if cfg.Quick {
		scale = quickScale
	}
	sweep := func(extra ...string) sweepRun {
		args := append([]string{"-sweep", specPath, "-jobs", "2", "-scale", fmt.Sprint(scale), "-json"}, extra...)
		return parseSweep(runProc(ctx, bin.ASIPDSE, args...))
	}
	logPath := filepath.Join(cfg.WorkDir, cfg.Workload+"-mat2cd.log")

	// Set-up. Each workload's timed sweeps run with the flags in timed.
	var (
		setups []float64
		timed  func(i int) sweepRun
		origin *daemon
		ref    []byte // normalized report every sweep must reproduce
	)
	defer func() {
		if origin != nil {
			origin.stop()
		}
	}()
	check := func(what string, s sweepRun) error {
		if s.err != nil {
			return fmt.Errorf("%s: %w", what, s.err)
		}
		if ref == nil {
			ref = s.normalized
		} else if !bytes.Equal(ref, s.normalized) {
			return fmt.Errorf("%s: report differs from the first sweep's", what)
		}
		return nil
	}
	for i := 0; i < setupReps(cfg); i++ {
		last := i == setupReps(cfg)-1
		begin := time.Now()
		switch cfg.Workload {
		case "dse-cold":
			// An untimed sweep: pays first-run costs such as loading the
			// binary, which every timed sweep then finds warm.
			if err := check("warm-up sweep", sweep()); err != nil {
				return err
			}
			timed = func(int) sweepRun { return sweep() }
		case "dse-warm":
			store := filepath.Join(dir, fmt.Sprintf("store-%d", i))
			if err := check("populating sweep", sweep("-cachedir", store)); err != nil {
				return err
			}
			timed = func(int) sweepRun { return sweep("-cachedir", store) }
		case "dse-remote":
			store := filepath.Join(dir, fmt.Sprintf("origin-%d", i))
			d, err := startDaemon(bin.Mat2cd, logPath, "-workers", "2", "-cachedir", store, "-artifactserve")
			if err != nil {
				return err
			}
			origin = d
			url := d.url + "/artifact"
			local := filepath.Join(dir, fmt.Sprintf("setup-local-%d", i))
			if err := check("origin-warming sweep", sweep("-cachedir", local, "-artifactremote", url)); err != nil {
				return err
			}
			os.RemoveAll(local)
			timed = func(n int) sweepRun {
				// A fresh local tier per sweep: every lookup misses disk,
				// fetches from the origin and writes the entry locally.
				local := filepath.Join(dir, fmt.Sprintf("local-%d", n))
				defer os.RemoveAll(local)
				return sweep("-cachedir", local, "-artifactremote", url)
			}
		}
		setups = append(setups, time.Since(begin).Seconds())
		if !last {
			if origin != nil {
				if _, err := origin.stop(); err != nil {
					return fmt.Errorf("stopping set-up origin: %w", err)
				}
				origin = nil
			}
			os.RemoveAll(filepath.Join(dir, fmt.Sprintf("store-%d", i)))
			os.RemoveAll(filepath.Join(dir, fmt.Sprintf("origin-%d", i)))
		}
	}

	// Measured phase.
	var walls, cpus, rss []float64
	var evals int
	var wallSum time.Duration
	var first sweepRun
	begin := time.Now()
	for n := 0; n == 0 || time.Since(begin) < cfg.Seconds; n++ {
		s := timed(n)
		rec.Result.Attempted++
		if err := check(fmt.Sprintf("sweep %d", n), s); err != nil {
			rec.problem("%v", err)
			continue
		}
		if cfg.Workload == "dse-cold" && s.hits != 0 {
			rec.problem("sweep %d: %d cache hits on a sweep with no cache tier", n, s.hits)
		}
		if cfg.Workload != "dse-cold" && s.hits != s.lookups {
			rec.problem("sweep %d: %d of %d lookups served by the cache tiers, want all", n, s.hits, s.lookups)
		}
		if first.evals == 0 {
			first = s
		}
		walls = append(walls, ms(s.wall))
		cpus = append(cpus, ms(s.cpu))
		rss = append(rss, s.rssMB)
		evals += s.evals
		wallSum += s.wall
	}
	if len(walls) == 0 {
		return nil // every sweep failed; the problems say why
	}
	rec.Samples["setup_s"] = setups
	rec.Samples["latency_ms"] = walls
	rec.Samples["cpu_ms"] = cpus
	rec.Samples["peak_rss_mb"] = rss
	rec.set("setup_s", Median(setups))
	rec.set("latency_ms", Median(walls))
	rec.set("cpu_ms", Median(cpus))
	rec.set("peak_rss_mb", Median(rss))
	rec.set("throughput_per_s", float64(evals)/wallSum.Seconds())
	rec.set("sim_cycles_geomean", Geomean(first.cycles))
	rec.set("code_size_total", float64(first.codeSize))
	rec.Extra["variants"] = Value{float64(first.variants), "count"}
	rec.Report = fmt.Sprintf("%x", sha256.Sum256(ref))
	return nil
}

// CheckReports checks that the sweep workloads among recs produced the
// same normalized report for each seed: the cache tiers must never
// change an answer.
func CheckReports(recs []*Record) error {
	first := map[uint64]*Record{}
	for _, r := range recs {
		if r.Report == "" {
			continue
		}
		if f := first[r.Seed]; f == nil {
			first[r.Seed] = r
		} else if r.Report != f.Report {
			return fmt.Errorf("seed %d: %s and %s produced different sweep reports", r.Seed, f.Workload, r.Workload)
		}
	}
	return nil
}

// runDependentFields are the report fields excluded from byte identity:
// wall time, and cache traffic, which differs by design between the
// workloads.
var runDependentFields = []string{"elapsed_us", "cache_lookups", "cache_hits"}

// parseSweep decodes an asipdse -json report, rejects one with failed
// variants, and extracts what the workload checks and reports.
func parseSweep(p procRun) sweepRun {
	s := sweepRun{procRun: p}
	if p.err != nil {
		return s
	}
	var rep dse.Report
	if err := json.Unmarshal(p.stdout, &rep); err != nil {
		s.err = fmt.Errorf("decoding sweep report: %w", err)
		return s
	}
	for _, v := range rep.Variants {
		if v.Error != "" {
			s.err = fmt.Errorf("variant %s: %s", v.Name, v.Error)
			return s
		}
		if v.CostSet == "" {
			s.cycles = append(s.cycles, float64(v.TotalCycles))
			s.codeSize += v.CodeSize
		}
	}
	if len(s.cycles) == 0 {
		s.err = fmt.Errorf("sweep report has no base-cost variants")
		return s
	}
	s.variants = len(rep.Variants)
	s.evals = s.variants * len(rep.Kernels)
	s.lookups, s.hits = rep.CacheLookups, rep.CacheHits

	var doc map[string]interface{}
	dec := json.NewDecoder(bytes.NewReader(p.stdout))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		s.err = fmt.Errorf("decoding sweep report: %w", err)
		return s
	}
	for _, f := range runDependentFields {
		delete(doc, f)
	}
	variants, _ := doc["variants"].([]interface{})
	for _, v := range variants {
		if m, ok := v.(map[string]interface{}); ok {
			for _, f := range runDependentFields {
				delete(m, f)
			}
		}
	}
	norm, err := json.Marshal(doc)
	if err != nil {
		s.err = fmt.Errorf("normalizing sweep report: %w", err)
		return s
	}
	s.normalized = norm
	return s
}
