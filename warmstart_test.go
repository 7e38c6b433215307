package mat2c_test

// Warm-start integration test for the durable artifact store: the same
// DSE sweep, run twice as separate processes sharing one -cachedir,
// must produce reports of one identity (dse.Report.Identity), with the
// second run compiling, simulating and
// translating nothing — every variant restored from disk and priced
// from the stored events of the first run's verified simulations.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mat2c/internal/dse"
)

// warmSweep keeps the sweep tiny: 2 widths × 2 complex = 4 variants on
// one small kernel. The point is the cache boundary, not DSE coverage.
const warmSweep = `{
  "base": "dspasip",
  "widths": [4, 8],
  "complex": [true, false]
}`

// reportIdentity returns the identity of an asipdse -json report
// (dse.Report.Identity): what a cold and a warm run must agree on.
func reportIdentity(t *testing.T, report string) string {
	t.Helper()
	rep, err := dse.ParseReport([]byte(report))
	if err != nil {
		t.Fatal(err)
	}
	id, err := rep.Identity()
	if err != nil {
		t.Fatal(err)
	}
	return string(id)
}

func runDSEProcess(t *testing.T, cacheDir, sweepPath string) (report, stats string) {
	t.Helper()
	cmd := exec.Command("go", "run", "./cmd/asipdse",
		"-json", "-cachestats",
		"-cachedir", cacheDir,
		"-sweep", sweepPath,
		"-kernels", "fir", "-scale", "0.1")
	cmd.Dir = "."
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("asipdse failed: %v\nstderr:\n%s", err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// statsFrom extracts the JSON object asipdse -cachestats prints to
// stderr after the given section prefix ("cache: ", "vm_compiled: ", ...).
func statsFrom(t *testing.T, stderr, prefix string) map[string]interface{} {
	t.Helper()
	i := strings.Index(stderr, prefix)
	if i < 0 {
		t.Fatalf("no %q section in stderr:\n%s", prefix, stderr)
	}
	var st map[string]interface{}
	if err := json.NewDecoder(strings.NewReader(stderr[i+len(prefix):])).Decode(&st); err != nil {
		t.Fatalf("parsing %q section: %v\nstderr:\n%s", prefix, err, stderr)
	}
	return st
}

// cacheStatsFrom extracts the cache tiers' statistics.
func cacheStatsFrom(t *testing.T, stderr string) map[string]interface{} {
	return statsFrom(t, stderr, "cache: ")
}

func statCounter(t *testing.T, st map[string]interface{}, name string) float64 {
	t.Helper()
	v, ok := st[name].(float64)
	if !ok {
		t.Fatalf("cache stats missing %q: %v", name, st)
	}
	return v
}

func TestWarmStartDSE(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run twice")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "store")
	sweepPath := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(sweepPath, []byte(warmSweep), 0o644); err != nil {
		t.Fatal(err)
	}

	cold, coldStats := runDSEProcess(t, cacheDir, sweepPath)
	warm, warmStats := runDSEProcess(t, cacheDir, sweepPath)

	// The warm report must have the cold one's identity: restored
	// artifacts reproduce the exact cycle counts, code sizes, and
	// frontier of the cold run.
	if reportIdentity(t, cold) != reportIdentity(t, warm) {
		t.Errorf("cold and warm reports differ:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}

	cs := cacheStatsFrom(t, coldStats)
	ws := cacheStatsFrom(t, warmStats)

	// Cold run: it compiled, and restored only what it wrote itself (a
	// variant that answers a kernel's questions as an earlier one did
	// finds that compile's trie path): its store holds only its own
	// writes.
	if statCounter(t, cs, "compiles") == 0 {
		t.Errorf("cold run compiled nothing: %v", cs)
	}
	disk, _ := cs["disk"].(map[string]interface{})
	if disk == nil || statCounter(t, disk, "entries") != statCounter(t, disk, "puts") {
		t.Errorf("cold run's store holds entries it did not write: %v", cs)
	}

	// Warm run: zero compiles, every variant restored from disk — at
	// least one disk hit per variant in the sweep (4 variants here).
	if got := statCounter(t, ws, "compiles"); got != 0 {
		t.Errorf("warm run compiled %v times, want 0", got)
	}
	if got := statCounter(t, ws, "disk_hits"); got < 4 {
		t.Errorf("warm run restored only %v artifacts, want >= 4 (one per variant)", got)
	}
	if statCounter(t, ws, "disk_decode_errors") != 0 {
		t.Errorf("warm run hit decode errors: %v", ws)
	}

	// The cold run stored the events of each verified simulation; the
	// warm run prices every variant from them, simulating and
	// translating nothing.
	if got := statCounter(t, cs, "event_misses"); got == 0 {
		t.Errorf("cold run simulated nothing")
	}
	if statCounter(t, cs, "event_puts") == 0 {
		t.Errorf("cold run stored no run events: %v", cs)
	}
	if got := statCounter(t, statsFrom(t, warmStats, "vm_compiled: "), "translations"); got != 0 {
		t.Errorf("warm run translated %v programs, want 0", got)
	}
	if got := statCounter(t, ws, "event_misses"); got != 0 {
		t.Errorf("warm run simulated %v times, want 0", got)
	}
	if statCounter(t, ws, "event_hits") == 0 {
		t.Errorf("warm run did not read every run's events from disk: %v", ws)
	}
}
