package isx

import (
	"context"
	"encoding/json"
	"testing"

	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// findCandidate returns the candidate of rep whose semantics is
// alpha-equivalent to sem, or nil.
func findCandidate(t *testing.T, rep *Report, sem string) *Candidate {
	t.Helper()
	want, err := ir.CachedPattern(sem)
	if err != nil {
		t.Fatalf("bad wanted pattern %q: %v", sem, err)
	}
	for _, c := range rep.Candidates {
		got, err := ir.CachedPattern(c.Semantics)
		if err != nil {
			t.Fatalf("candidate %s has bad semantics %q: %v", c.Name, c.Semantics, err)
		}
		if got.Canonical() == want.Canonical() {
			return c
		}
	}
	return nil
}

func scalarProc(t *testing.T) *pdesc.Processor {
	t.Helper()
	p := pdesc.Builtin("scalar")
	if p == nil {
		t.Fatal("no builtin scalar processor")
	}
	return p
}

// The miner must rediscover the multiply-accumulate fusion from the
// fir profile of a plain scalar target, and the measured speedup of
// the verified candidate must match the profile-based estimate.
func TestMineFirDiscoversFma(t *testing.T) {
	rep, err := Mine(scalarProc(t), Options{Kernels: []string{"fir"}})
	if err != nil {
		t.Fatal(err)
	}
	c := findCandidate(t, rep, "float:add(p0,mul(p1,p2))")
	if c == nil {
		t.Fatalf("no fma-shaped candidate mined; got %s", dump(rep))
	}
	if c.ScalarCycles != 1 {
		t.Errorf("fma-shaped candidate costs %d cycles, want 1", c.ScalarCycles)
	}
	checkVerified(t, c, 0.05)
}

// Complex kernels on a scalar datapath must yield a complex
// multiply-accumulate candidate with a large measured win — the
// miner rediscovering the paper's hand-designed complex ISA.
func TestMineCfirDiscoversComplexMac(t *testing.T) {
	rep, err := Mine(scalarProc(t), Options{Kernels: []string{"cfir"}})
	if err != nil {
		t.Fatal(err)
	}
	c := findCandidate(t, rep, "complex:add(p0,mul(p1,p2))")
	if c == nil {
		t.Fatalf("no cmac-shaped candidate mined; got %s", dump(rep))
	}
	checkVerified(t, c, 0.10)
}

// checkVerified asserts that c was selected and measurably improved at
// least one kernel by minImprove, and that on every verified kernel
// the profile-based estimate agrees with the measured saving within a
// factor of two.
func checkVerified(t *testing.T, c *Candidate, minImprove float64) {
	t.Helper()
	if len(c.Deltas) == 0 {
		t.Fatalf("candidate %s (%s) was not verified", c.Name, c.Semantics)
	}
	improved := false
	for _, d := range c.Deltas {
		if d.Err != "" {
			t.Errorf("%s on %s: %s", c.Name, d.Kernel, d.Err)
			continue
		}
		if d.Selected == 0 {
			t.Errorf("%s on %s: never selected", c.Name, d.Kernel)
			continue
		}
		if d.Measured <= 0 {
			t.Errorf("%s on %s: no measured saving (base %d, new %d)", c.Name, d.Kernel, d.BaseCycles, d.NewCycles)
			continue
		}
		ratio := float64(d.Estimated) / float64(d.Measured)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s on %s: estimate %d vs measured %d (ratio %.2f) out of tolerance",
				c.Name, d.Kernel, d.Estimated, d.Measured, ratio)
		}
		if float64(d.Measured) >= minImprove*float64(d.BaseCycles) {
			improved = true
		}
	}
	if !improved {
		t.Errorf("candidate %s never improved a kernel by %.0f%%: %+v", c.Name, minImprove*100, c.Deltas)
	}
}

// Acceptance: on at least two kernels the miner finds an extension not
// in the base processor with a measured >= 10% cycle improvement.
func TestMineTenPercentOnTwoKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	proc := scalarProc(t)
	won := 0
	for _, kn := range []string{"fir", "cfir", "xcorr"} {
		rep, err := Mine(proc, Options{Kernels: []string{kn}, Top: 4})
		if err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for _, c := range rep.Candidates {
			if proc.HasInstr(c.Name) {
				t.Errorf("mined %s already exists in base processor", c.Name)
			}
			for _, d := range c.Deltas {
				if d.Err == "" && d.Selected > 0 && d.Measured > 0 {
					if f := float64(d.Measured) / float64(d.BaseCycles); f > best {
						best = f
					}
				}
			}
		}
		t.Logf("%s: best measured improvement %.1f%%", kn, best*100)
		if best >= 0.10 {
			won++
		}
	}
	if won < 2 {
		t.Errorf("mined a >=10%% win on %d kernels, want >= 2", won)
	}
}

// Mining the vectorized wide target must produce vector forms, and
// deriving a processor from the candidates must validate.
func TestMineVectorFormsAndExtend(t *testing.T) {
	base := pdesc.Builtin("nosimd")
	if base == nil {
		t.Fatal("no builtin nosimd processor")
	}
	// nosimd has the complex ISA but no vectors; use wide8 stripped of
	// its custom instructions to force purely mined vector candidates.
	wide, err := pdesc.Builtin("wide8").Derive("wide8-bare", func(q *pdesc.Processor) {
		q.Instructions = nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Mine(wide, Options{Kernels: []string{"fir"}, NoVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) == 0 {
		t.Fatal("no candidates on bare wide target")
	}
	var vec *Candidate
	for _, c := range rep.Candidates {
		if c.HasVector {
			vec = c
			break
		}
	}
	if vec == nil {
		t.Fatalf("no vector-form candidate on an 8-lane target: %s", dump(rep))
	}
	ext, err := Extend(wide, "wide8-mined", rep.Candidates...)
	if err != nil {
		t.Fatalf("extend: %v", err)
	}
	if !ext.HasInstr(vec.Name) || !ext.HasInstr("v"+vec.Name) {
		t.Errorf("extended processor missing %s/v%s", vec.Name, vec.Name)
	}
	if err := ext.Validate(); err != nil {
		t.Errorf("extended processor invalid: %v", err)
	}
}

// Mining must be deterministic: two runs produce identical reports.
func TestMineDeterministic(t *testing.T) {
	opts := Options{Kernels: []string{"fir", "iirsos"}, NoVerify: true}
	a, err := Mine(scalarProc(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(scalarProc(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if dump(a) != dump(b) {
		t.Errorf("non-deterministic reports:\n%s\nvs\n%s", dump(a), dump(b))
	}
}

// A repeated mine verifies its candidates from the runs of the first:
// it simulates nothing and reports the same measurements.
func TestRepeatedMinePricesVerification(t *testing.T) {
	opts := Options{Kernels: []string{"fir", "cfir"}}
	a, err := Mine(scalarProc(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	before := runs.Stats()
	b, err := Mine(scalarProc(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	after := runs.Stats()
	if after.EventMisses != before.EventMisses || after.EventMemoHits == before.EventMemoHits {
		t.Errorf("repeated mine: %d simulations and %d priced runs, want 0 and some",
			after.EventMisses-before.EventMisses, after.EventMemoHits-before.EventMemoHits)
	}
	if dump(a) != dump(b) {
		t.Errorf("repeated mine reported differently:\n%s\nvs\n%s", dump(a), dump(b))
	}
}

func TestMineUnknownKernel(t *testing.T) {
	if _, err := Mine(scalarProc(t), Options{Kernels: []string{"nope"}}); err == nil {
		t.Error("mining an unknown kernel should fail")
	}
}

func TestMineCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineContext(ctx, scalarProc(t), Options{Kernels: []string{"fir"}}); err == nil {
		t.Error("cancelled mine should fail")
	}
}

func dump(v interface{}) string {
	b, _ := json.MarshalIndent(v, "", " ")
	return string(b)
}
