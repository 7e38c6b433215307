// Command fleetsmoke is the fleet integration smoke test CI runs: it
// builds mat2cd, boots one coordinator, two workers, and one
// single-process daemon, submits the same small sweep over the scalar
// base target to the coordinator and to the single daemon, then the
// same small isx mine, and fails unless each sharded-and-merged report
// is byte-identical to the single-process one (a sweep report compared
// by its dse.Report.Identity). The reports are written to -out for
// artifact upload.
//
// Three more phases then exercise the durable and fleet-shared cache
// tiers end to end:
//
//   - warm start: two sequential daemons share one -cachedir; the
//     second must restore everything from disk with zero compiles.
//   - shared remote: a coordinator serves its store at /artifact; a
//     worker compiles a sweep cold, is replaced by a fresh worker that
//     never compiled anything, and that worker must serve the same
//     sweep from remote hits alone — zero compiles, zero simulations,
//     byte-identical report — read in at most two batch requests per
//     unit and no per-key GETs.
//   - remote outage: a consumer daemon runs sweeps against a cache
//     origin that is hard-killed mid-sweep; every request must still
//     succeed (degrading to recompiles), with the outage visible only
//     in the cache counters.
//
// Usage:
//
//	fleetsmoke [-bin path/to/mat2cd] [-out dir] [-timeout 5m] [-racebuild]
//
// With no -bin, the tool builds mat2cd from the enclosing module
// (run it from the repository root, as CI does); -racebuild builds it
// with the race detector so the daemons themselves run race-checked.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"mat2c/internal/dse"
)

func main() {
	var (
		bin     = flag.String("bin", "", "mat2cd binary (default: go build ./cmd/mat2cd)")
		out     = flag.String("out", "fleetsmoke-out", "artifact directory for the reports")
		timeout = flag.Duration("timeout", 5*time.Minute, "overall deadline")
		race    = flag.Bool("racebuild", false, "build mat2cd with -race so the daemons run race-checked")
	)
	flag.Parse()
	raceBuild = *race

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *bin, *out); err != nil {
		log.Fatalf("fleetsmoke: FAIL: %v", err)
	}
	log.Printf("fleetsmoke: PASS: sharded report is byte-identical to single-process report")
	if err := warmStart(ctx, *bin, *out); err != nil {
		log.Fatalf("fleetsmoke: FAIL: warm start: %v", err)
	}
	log.Printf("fleetsmoke: PASS: warm restart restored every artifact from disk with zero compiles")
	if err := sharedRemote(ctx, *bin, *out); err != nil {
		log.Fatalf("fleetsmoke: FAIL: shared remote: %v", err)
	}
	log.Printf("fleetsmoke: PASS: fresh worker served the sweep from the shared remote cache with zero compiles and zero simulations")
	if err := remoteOutage(ctx, *bin, *out); err != nil {
		log.Fatalf("fleetsmoke: FAIL: remote outage: %v", err)
	}
	log.Printf("fleetsmoke: PASS: cache-origin outage degraded to recompiles with zero request failures")
}

// raceBuild is set from -racebuild before any phase runs.
var raceBuild bool

func run(ctx context.Context, bin, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if bin == "" {
		built := filepath.Join(outDir, "mat2cd")
		args := []string{"build"}
		if raceBuild {
			args = append(args, "-race")
		}
		args = append(args, "-o", built, "./cmd/mat2cd")
		cmd := exec.CommandContext(ctx, "go", args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build mat2cd: %w", err)
		}
		bin = built
	}

	ports, err := freePorts(4)
	if err != nil {
		return err
	}
	coordURL := fmt.Sprintf("http://127.0.0.1:%d", ports[0])
	singleURL := fmt.Sprintf("http://127.0.0.1:%d", ports[3])

	procs := []*daemon{
		{name: "coordinator", args: []string{"-coordinator", "-addr", fmt.Sprintf("127.0.0.1:%d", ports[0])}},
		{name: "worker1", args: workerArgs(ports[1], coordURL)},
		{name: "worker2", args: workerArgs(ports[2], coordURL)},
		{name: "single", args: []string{"-addr", fmt.Sprintf("127.0.0.1:%d", ports[3])}},
	}
	for _, d := range procs {
		if err := d.start(ctx, bin); err != nil {
			return err
		}
		defer d.stop()
	}

	// Fleet readiness: both workers registered and alive.
	if err := poll(ctx, 30*time.Second, func() error {
		var st struct {
			Coordinator struct {
				Alive int `json:"workers_alive"`
			} `json:"coordinator"`
		}
		if err := getJSON(ctx, coordURL+"/fleet", &st); err != nil {
			return err
		}
		if st.Coordinator.Alive < 2 {
			return fmt.Errorf("%d of 2 workers alive", st.Coordinator.Alive)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("fleet never became ready: %w", err)
	}
	log.Printf("fleetsmoke: coordinator reports 2 alive workers")

	// The same sweep, submitted to both daemons. Jobs is explicit so the
	// reports' jobs field cannot drift with the hosts' core counts.
	sweep := smokeSweep()
	sharded, err := runJob(ctx, coordURL, "/dse", sweep)
	if err != nil {
		return fmt.Errorf("sharded sweep: %w", err)
	}
	single, err := runJob(ctx, singleURL, "/dse", sweep)
	if err != nil {
		return fmt.Errorf("single-process sweep: %w", err)
	}

	shardedID, err := identity(sharded)
	if err != nil {
		return err
	}
	singleID, err := identity(single)
	if err != nil {
		return err
	}
	if err := sameReports(outDir, "report", shardedID, singleID); err != nil {
		return err
	}

	// The job-listing endpoint knows the finished sweep.
	var list struct {
		Jobs []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"jobs"`
	}
	if err := getJSON(ctx, coordURL+"/dse", &list); err != nil {
		return err
	}
	if len(list.Jobs) != 1 || list.Jobs[0].State != "done" {
		return fmt.Errorf("GET /dse: want one done job, got %+v", list.Jobs)
	}

	// The second job kind: the coordinator shards the mine's candidate
	// verification across the workers, and its report must match the
	// standalone daemon's in-process mine.
	mine := map[string]interface{}{"proc": "scalar", "kernels": []string{"fir"}, "scale": 0.05, "top": 2}
	shardedMine, err := runJob(ctx, coordURL, "/isx", mine)
	if err != nil {
		return fmt.Errorf("sharded mine: %w", err)
	}
	singleMine, err := runJob(ctx, singleURL, "/isx", mine)
	if err != nil {
		return fmt.Errorf("single-process mine: %w", err)
	}
	if err := sameReports(outDir, "isx", shardedMine, singleMine); err != nil {
		return err
	}
	for _, url := range []string{coordURL, singleURL} {
		if err := getJSON(ctx, url+"/isx", &list); err != nil {
			return err
		}
		if len(list.Jobs) != 1 || list.Jobs[0].State != "done" {
			return fmt.Errorf("GET %s/isx: want one done job, got %+v", url, list.Jobs)
		}
	}
	log.Printf("fleetsmoke: sharded isx report is byte-identical to the single-process one")

	// The fleet actually did the work: units dispatched and completed.
	var st struct {
		Coordinator struct {
			Dispatched uint64 `json:"units_dispatched"`
			Completed  uint64 `json:"units_completed"`
		} `json:"coordinator"`
	}
	if err := getJSON(ctx, coordURL+"/fleet", &st); err != nil {
		return err
	}
	if st.Coordinator.Completed == 0 {
		return fmt.Errorf("GET /fleet: no units completed (dispatched %d)", st.Coordinator.Dispatched)
	}
	log.Printf("fleetsmoke: %d units dispatched, %d completed", st.Coordinator.Dispatched, st.Coordinator.Completed)
	return nil
}

// sameReports writes the sharded and single-process reports to
// outDir as <name>-sharded.json and <name>-single.json, and fails
// unless they are byte-identical.
func sameReports(outDir, name string, sharded, single []byte) error {
	if err := os.WriteFile(filepath.Join(outDir, name+"-sharded.json"), sharded, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, name+"-single.json"), single, 0o644); err != nil {
		return err
	}
	if !bytes.Equal(sharded, single) {
		return fmt.Errorf("sharded %s differs from the single-process one (see %s)", name, outDir)
	}
	return nil
}

// smokeSweep is the POST /dse body every phase submits. Jobs is
// explicit so the reports' jobs field cannot drift with the hosts' core
// counts.
// maxPathNodes bounds the nodes of a compile's trie path in the smoke
// sweep: its kernels ask a target at most seven questions, as on every
// supported sweep, and the leaf ends the path.
const maxPathNodes = 8

func smokeSweep() map[string]interface{} {
	return map[string]interface{}{
		"sweep": map[string]interface{}{
			"base":    "scalar",
			"widths":  []int{1, 2, 4},
			"complex": []bool{false, true},
		},
		"jobs":    2,
		"scale":   0.05,
		"kernels": []string{"fir", "cfir"},
	}
}

// storeDir empties the store directory name under outDir for a phase
// and returns its path, so a phase starts cold however many smoke runs
// went into outDir before.
func storeDir(outDir, name string) (string, error) {
	dir := filepath.Join(outDir, name)
	return dir, os.RemoveAll(dir)
}

// warmStart exercises the durable artifact store across process
// restarts: two sequential single-process daemons share one -cachedir;
// the first compiles the sweep cold, the second must restore every
// artifact from disk (zero compiles, disk hits observed) and reproduce
// the report byte-for-byte once timing and cache-traffic fields are
// stripped.
func warmStart(ctx context.Context, bin, outDir string) error {
	if bin == "" {
		bin = filepath.Join(outDir, "mat2cd") // built by run()
	}
	cacheDir, err := storeDir(outDir, "artifact-store")
	if err != nil {
		return err
	}
	ports, err := freePorts(2)
	if err != nil {
		return err
	}

	type cacheMetrics struct {
		Compiles     uint64 `json:"compiles"`
		DiskHits     uint64 `json:"disk_hits"`
		DecodeErrors uint64 `json:"disk_decode_errors"`
	}
	var reports [2][]byte
	var stats [2]cacheMetrics
	for i, name := range []string{"cold", "warm"} {
		err := func() error {
			url := fmt.Sprintf("http://127.0.0.1:%d", ports[i])
			d := &daemon{name: name, args: []string{
				"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
				"-cachedir", cacheDir,
			}}
			if err := d.start(ctx, bin); err != nil {
				return err
			}
			defer d.stop() // graceful: drains the store write-through queue
			if err := poll(ctx, 30*time.Second, func() error {
				return getJSON(ctx, url+"/metrics", &struct{}{})
			}); err != nil {
				return fmt.Errorf("%s daemon never became ready: %w", name, err)
			}
			report, err := runJob(ctx, url, "/dse", smokeSweep())
			if err != nil {
				return fmt.Errorf("%s sweep: %w", name, err)
			}
			var ms struct {
				Cache cacheMetrics `json:"cache"`
			}
			if err := getJSON(ctx, url+"/metrics", &ms); err != nil {
				return err
			}
			stats[i] = ms.Cache
			reports[i], err = identity(report)
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(outDir, "report-"+name+".json"), reports[i], 0o644)
		}()
		if err != nil {
			return err
		}
	}

	cold, warm := stats[0], stats[1]
	if cold.Compiles == 0 {
		return fmt.Errorf("cold run compiled nothing (metrics %+v)", cold)
	}
	if warm.Compiles != 0 {
		return fmt.Errorf("warm run compiled %d times, want 0 (store not consulted)", warm.Compiles)
	}
	if warm.DiskHits == 0 {
		return fmt.Errorf("warm run restored nothing from disk (metrics %+v)", warm)
	}
	if warm.DecodeErrors != 0 {
		return fmt.Errorf("warm run hit %d decode errors", warm.DecodeErrors)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		return fmt.Errorf("warm report differs from cold report (see %s)", outDir)
	}
	log.Printf("fleetsmoke: warm start: cold compiled %d, warm restored %d from disk", cold.Compiles, warm.DiskHits)
	return nil
}

// remoteCacheMetrics is the slice of /metrics cache counters the shared
// cache phases assert on.
type remoteCacheMetrics struct {
	Compiles           uint64 `json:"compiles"`
	DiskHits           uint64 `json:"disk_hits"`
	RemoteHits         uint64 `json:"remote_hits"`
	RemoteMisses       uint64 `json:"remote_misses"`
	RemoteDecodeErrors uint64 `json:"remote_decode_errors"`
	RemoteStoreErrors  uint64 `json:"remote_store_errors"`
	EventHits          uint64 `json:"event_hits"`
	EventMisses        uint64 `json:"event_misses"`
	EventPuts          uint64 `json:"event_puts"`
}

func cacheMetricsOf(ctx context.Context, url string) (remoteCacheMetrics, error) {
	var ms struct {
		Cache remoteCacheMetrics `json:"cache"`
	}
	err := getJSON(ctx, url+"/metrics", &ms)
	return ms.Cache, err
}

// sharedRemote is the fleet warm-start acceptance phase: a coordinator
// serving its artifact store at /artifact, one worker that compiles and
// simulates a sweep cold (pushing every artifact and the events of
// every verified run to the origin), then a FRESH worker — empty
// memory, no disk store, never compiled anything — that must serve the
// identical sweep purely from remote hits: zero compiles, zero
// simulations, byte-identical report.
func sharedRemote(ctx context.Context, bin, outDir string) error {
	if bin == "" {
		bin = filepath.Join(outDir, "mat2cd") // built by run()
	}
	ports, err := freePorts(3)
	if err != nil {
		return err
	}
	coordURL := fmt.Sprintf("http://127.0.0.1:%d", ports[0])
	originDir, err := storeDir(outDir, "shared-store")
	if err != nil {
		return err
	}

	coord := &daemon{name: "origin-coordinator", args: []string{
		"-coordinator",
		"-addr", fmt.Sprintf("127.0.0.1:%d", ports[0]),
		"-cachedir", originDir,
		"-artifactserve",
	}}
	if err := coord.start(ctx, bin); err != nil {
		return err
	}
	defer coord.stop()

	waitWorkers := func(n int) error {
		return poll(ctx, 30*time.Second, func() error {
			var st struct {
				Coordinator struct {
					Alive int `json:"workers_alive"`
				} `json:"coordinator"`
			}
			if err := getJSON(ctx, coordURL+"/fleet", &st); err != nil {
				return err
			}
			if st.Coordinator.Alive < n {
				return fmt.Errorf("%d of %d workers alive", st.Coordinator.Alive, n)
			}
			return nil
		})
	}

	// Worker A compiles the sweep cold; registration auto-attaches the
	// coordinator's advertised /artifact endpoint as its remote tier.
	workerA := &daemon{name: "workerA", args: workerArgs(ports[1], coordURL)}
	if err := workerA.start(ctx, bin); err != nil {
		return err
	}
	stopA := true
	defer func() {
		if stopA {
			workerA.stop()
		}
	}()
	if err := waitWorkers(1); err != nil {
		return fmt.Errorf("worker A never registered: %w", err)
	}
	coldReport, err := runJob(ctx, coordURL, "/dse", smokeSweep())
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	coldStats, err := cacheMetricsOf(ctx, fmt.Sprintf("http://127.0.0.1:%d", ports[1]))
	if err != nil {
		return err
	}
	if coldStats.Compiles == 0 {
		return fmt.Errorf("worker A compiled nothing (metrics %+v)", coldStats)
	}

	// Every compile and every verified run's events must reach the
	// origin before worker B starts; the worker's write-throughs are
	// asynchronous, so poll the origin's entry count (the blob stats
	// document at GET /artifact) and worker A's events writes: each
	// events miss in this sweep is a verified run whose events go to
	// the one tier.
	if err := poll(ctx, 30*time.Second, func() error {
		st, err := cacheMetricsOf(ctx, fmt.Sprintf("http://127.0.0.1:%d", ports[1]))
		if err != nil {
			return err
		}
		if st.EventMisses == 0 || st.EventPuts < st.EventMisses {
			return fmt.Errorf("worker A stored %d of %d run events", st.EventPuts, st.EventMisses)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("worker A's run events never reached the origin: %w", err)
	}
	if err := poll(ctx, 30*time.Second, func() error {
		var st struct {
			Entries int `json:"entries"`
		}
		if err := getJSON(ctx, coordURL+"/artifact", &st); err != nil {
			return err
		}
		if uint64(st.Entries) < coldStats.Compiles {
			return fmt.Errorf("origin holds %d of %d artifacts", st.Entries, coldStats.Compiles)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("worker A's artifacts never reached the origin: %w", err)
	}
	workerA.stop()
	stopA = false
	originBefore, err := originTrafficOf(ctx, coordURL)
	if err != nil {
		return err
	}

	// Worker B: brand new process, nothing local. The same sweep must
	// be served entirely by the shared remote.
	workerB := &daemon{name: "workerB", args: workerArgs(ports[2], coordURL)}
	if err := workerB.start(ctx, bin); err != nil {
		return err
	}
	defer workerB.stop()
	if err := waitWorkers(1); err != nil {
		return fmt.Errorf("worker B never registered: %w", err)
	}
	warmReport, err := runJob(ctx, coordURL, "/dse", smokeSweep())
	if err != nil {
		return fmt.Errorf("warm sweep: %w", err)
	}
	warmStats, err := cacheMetricsOf(ctx, fmt.Sprintf("http://127.0.0.1:%d", ports[2]))
	if err != nil {
		return err
	}
	if warmStats.Compiles != 0 {
		return fmt.Errorf("worker B compiled %d times, want 0 (remote not consulted; metrics %+v)", warmStats.Compiles, warmStats)
	}
	if warmStats.RemoteHits == 0 {
		return fmt.Errorf("worker B restored nothing from the remote (metrics %+v)", warmStats)
	}
	if warmStats.RemoteDecodeErrors != 0 {
		return fmt.Errorf("worker B hit %d remote decode errors", warmStats.RemoteDecodeErrors)
	}
	if warmStats.EventMisses != 0 || warmStats.EventHits == 0 {
		return fmt.Errorf("worker B simulated %d times with %d stored run events read, want 0 simulations (metrics %+v)", warmStats.EventMisses, warmStats.EventHits, warmStats)
	}
	// Each unit reads its compile tries level by level, one batch
	// request per level (a path is at most maxPathNodes nodes), and the
	// blobs and events entries its leaves name in one more.
	originAfter, err := originTrafficOf(ctx, coordURL)
	if err != nil {
		return err
	}
	gets, batches := originAfter.Gets-originBefore.Gets, originAfter.Batches-originBefore.Batches
	units := originAfter.Dispatched - originBefore.Dispatched
	if bound := (maxPathNodes + 1) * units; gets != 0 || batches == 0 || batches > bound {
		return fmt.Errorf("worker B's sweep made %d per-key GETs and %d batch requests for %d units, want 0 GETs and 1 to %d batches",
			gets, batches, units, bound)
	}

	coldJSON, err := identity(coldReport)
	if err != nil {
		return err
	}
	warmJSON, err := identity(warmReport)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report-remote-cold.json"), coldJSON, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report-remote-warm.json"), warmJSON, 0o644); err != nil {
		return err
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		return fmt.Errorf("remote-served report differs from compiled report (see %s)", outDir)
	}
	log.Printf("fleetsmoke: shared remote: worker A compiled %d, worker B served %d remote hits and %d stored run events with 0 compiles and 0 simulations, in %d batch requests for %d units",
		coldStats.Compiles, warmStats.RemoteHits, warmStats.EventHits, batches, units)
	return nil
}

// originTraffic is the origin's read traffic (its blob stats document)
// and the coordinator's dispatched-unit count.
type originTraffic struct {
	Gets, Batches, Dispatched uint64
}

func originTrafficOf(ctx context.Context, coordURL string) (originTraffic, error) {
	var blob struct {
		Server struct {
			Gets    uint64 `json:"gets"`
			Batches uint64 `json:"batches"`
		} `json:"server"`
	}
	if err := getJSON(ctx, coordURL+"/artifact", &blob); err != nil {
		return originTraffic{}, err
	}
	var fleet struct {
		Coordinator struct {
			Dispatched uint64 `json:"units_dispatched"`
		} `json:"coordinator"`
	}
	if err := getJSON(ctx, coordURL+"/fleet", &fleet); err != nil {
		return originTraffic{}, err
	}
	return originTraffic{blob.Server.Gets, blob.Server.Batches, fleet.Coordinator.Dispatched}, nil
}

// remoteOutage proves a dying cache origin can never fail a request: a
// consumer daemon sweeps against an origin that is hard-killed
// (SIGKILL, no drain) mid-sweep, then sweeps fresh work with the origin
// still dead. Both jobs must complete with every variant present; the
// outage shows up only in the remote miss/store-error counters.
func remoteOutage(ctx context.Context, bin, outDir string) error {
	if bin == "" {
		bin = filepath.Join(outDir, "mat2cd") // built by run()
	}
	ports, err := freePorts(2)
	if err != nil {
		return err
	}
	originURL := fmt.Sprintf("http://127.0.0.1:%d", ports[0])
	consumerURL := fmt.Sprintf("http://127.0.0.1:%d", ports[1])
	originDir, err := storeDir(outDir, "outage-store")
	if err != nil {
		return err
	}

	// The origin is a plain daemon serving its store; pre-warm it by
	// running the sweep on it directly.
	origin := &daemon{name: "origin", args: []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", ports[0]),
		"-cachedir", originDir,
		"-artifactserve",
	}}
	if err := origin.start(ctx, bin); err != nil {
		return err
	}
	killed := false
	defer func() {
		if !killed {
			origin.stop()
		}
	}()
	if err := poll(ctx, 30*time.Second, func() error {
		return getJSON(ctx, originURL+"/metrics", &struct{}{})
	}); err != nil {
		return fmt.Errorf("origin never became ready: %w", err)
	}
	originReport, err := runJob(ctx, originURL, "/dse", smokeSweep())
	if err != nil {
		return fmt.Errorf("origin pre-warm sweep: %w", err)
	}

	consumer := &daemon{name: "consumer", args: []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", ports[1]),
		"-artifactremote", originURL + "/artifact",
	}}
	if err := consumer.start(ctx, bin); err != nil {
		return err
	}
	defer consumer.stop()
	if err := poll(ctx, 30*time.Second, func() error {
		return getJSON(ctx, consumerURL+"/metrics", &struct{}{})
	}); err != nil {
		return fmt.Errorf("consumer never became ready: %w", err)
	}

	// Submit the pre-warmed sweep and hard-kill the origin while it may
	// still be streaming artifacts: whatever was fetched before the kill
	// is a remote hit, everything after degrades to a recompile — and
	// either way the job must finish with the identical report.
	type sweepResult struct {
		report json.RawMessage
		err    error
	}
	resc := make(chan sweepResult, 1)
	go func() {
		rep, err := runJob(ctx, consumerURL, "/dse", smokeSweep())
		resc <- sweepResult{rep, err}
	}()
	time.Sleep(150 * time.Millisecond)
	origin.kill()
	killed = true
	res := <-resc
	if res.err != nil {
		return fmt.Errorf("sweep across origin kill failed: %w", res.err)
	}

	originJSON, err := identity(originReport)
	if err != nil {
		return err
	}
	outageJSON, err := identity(res.report)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report-outage.json"), outageJSON, 0o644); err != nil {
		return err
	}
	if !bytes.Equal(originJSON, outageJSON) {
		return fmt.Errorf("outage report differs from origin report (see %s)", outDir)
	}

	// Fresh work with the origin dead: forced compiles, still no
	// failures. A wider SIMD variant changes every cache key.
	deadSweep := smokeSweep()
	deadSweep["sweep"] = map[string]interface{}{
		"base":    "scalar",
		"widths":  []int{8},
		"complex": []bool{false},
	}
	deadSweep["kernels"] = []string{"fir"}
	if _, err := runJob(ctx, consumerURL, "/dse", deadSweep); err != nil {
		return fmt.Errorf("sweep against dead origin failed: %w", err)
	}
	st, err := cacheMetricsOf(ctx, consumerURL)
	if err != nil {
		return err
	}
	if st.Compiles == 0 {
		return fmt.Errorf("dead-origin sweep compiled nothing (metrics %+v)", st)
	}
	if st.RemoteDecodeErrors != 0 {
		return fmt.Errorf("outage produced %d remote decode errors, want 0 (outage must look like misses)", st.RemoteDecodeErrors)
	}
	if st.RemoteMisses == 0 && st.RemoteStoreErrors == 0 {
		return fmt.Errorf("outage left no trace in the remote counters (metrics %+v)", st)
	}
	log.Printf("fleetsmoke: outage: consumer compiled %d with the origin dead (%d remote misses, %d store errors), zero failures",
		st.Compiles, st.RemoteMisses, st.RemoteStoreErrors)
	return nil
}

// identity returns a /dse report's identity (dse.Report.Identity),
// which every run of one sweep shares: sharded or single-process, cold
// or warm, fed by a live origin or a dead one.
func identity(report json.RawMessage) ([]byte, error) {
	rep, err := dse.ParseReport(report)
	if err != nil {
		return nil, err
	}
	return rep.Identity()
}

// daemon is one spawned mat2cd process.
type daemon struct {
	name string
	args []string
	cmd  *exec.Cmd
}

func (d *daemon) start(ctx context.Context, bin string) error {
	d.cmd = exec.CommandContext(ctx, bin, d.args...)
	d.cmd.Stdout, d.cmd.Stderr = os.Stderr, os.Stderr
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", d.name, err)
	}
	log.Printf("fleetsmoke: started %s (pid %d): mat2cd %v", d.name, d.cmd.Process.Pid, d.args)
	return nil
}

// kill is the ungraceful stop: SIGKILL, no drain, no store flush — the
// outage phase uses it so the origin dies the way a crashed host does.
func (d *daemon) kill() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	log.Printf("fleetsmoke: killed %s", d.name)
}

func (d *daemon) stop() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

func workerArgs(port int, coordURL string) []string {
	self := fmt.Sprintf("http://127.0.0.1:%d", port)
	return []string{
		"-worker", coordURL,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-advertise", self,
	}
}

// freePorts reserves n distinct ephemeral ports and releases them for
// the daemons to bind. The window between release and rebind is racy
// in principle; in the CI container it is not contended.
func freePorts(n int) ([]int, error) {
	var ports []int
	var listeners []net.Listener
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// runJob submits one async job (path "/dse" or "/isx") and polls it to
// completion, returning the raw report JSON.
func runJob(ctx context.Context, baseURL, path string, req interface{}) (json.RawMessage, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	var acc struct {
		ID     string `json:"id"`
		Status string `json:"status_url"`
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		return nil, err
	}

	var report json.RawMessage
	err = poll(ctx, 4*time.Minute, func() error {
		var st struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Report json.RawMessage `json:"report"`
		}
		if err := getJSON(ctx, baseURL+acc.Status, &st); err != nil {
			return err
		}
		switch st.State {
		case "done":
			report = st.Report
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("job %s %s: %s", acc.ID, st.State, st.Error)
		default:
			return fmt.Errorf("job %s still %s", acc.ID, st.State)
		}
	})
	return report, err
}

func poll(ctx context.Context, within time.Duration, fn func() error) error {
	deadline := time.Now().Add(within)
	var last error
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if last = fn(); last == nil {
			return nil
		}
		select {
		case <-ctx.Done():
		case <-time.After(250 * time.Millisecond):
		}
	}
	if last == nil {
		last = ctx.Err()
	}
	return last
}

func getJSON(ctx context.Context, url string, v interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}
