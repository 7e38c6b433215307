package bench

import (
	"math"
	"math/cmplx"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mat2c/internal/core"
	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
)

// directDFT is the textbook DFT with one cmplx.Exp per (k, t) term, the
// cross-check for fftRef's table of roots of unity.
func directDFT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			acc += x[t] * cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(t)/float64(n)))
		}
		y[k] = acc
	}
	return y
}

func fftRefOf(x []complex128) []complex128 {
	a := ir.NewComplexArray(1, len(x))
	copy(a.C, x)
	return fftRef([]interface{}{a, twiddles(len(x))})[0].(*ir.Array).C
}

func assertClose(t *testing.T, label string, got, want []complex128, tol float64) {
	t.Helper()
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > tol {
			t.Fatalf("%s[%d]: got %v, want %v (|diff| %.3g > %g)", label, i, got[i], want[i], d, tol)
		}
	}
}

func TestFFTRefMatchesDirectFormula(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		x := newRng(3003).complexArr(1, n).C
		assertClose(t, "fftRef", fftRefOf(x), directDFT(x), 1e-9)
	}
}

func TestFFTRefAnalytic(t *testing.T) {
	const n = 64
	// An impulse at t=0 transforms to all ones.
	impulse := make([]complex128, n)
	impulse[0] = 1
	ones := make([]complex128, n)
	for i := range ones {
		ones[i] = 1
	}
	assertClose(t, "impulse", fftRefOf(impulse), ones, 1e-9)

	// The tone exp(+2πi·f·t/n) transforms to a single spike of height n
	// at bin f.
	const f = 5
	tone := make([]complex128, n)
	for i := range tone {
		tone[i] = cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)/n))
	}
	spike := make([]complex128, n)
	spike[f] = n
	assertClose(t, "tone", fftRefOf(tone), spike, 1e-9)
}

func TestKernelsShareSuitePointers(t *testing.T) {
	ks := Kernels()
	for _, k := range ks {
		if KernelByName(k.Name) != k {
			t.Errorf("KernelByName(%q) is not the suite kernel Kernels returns", k.Name)
		}
	}
	ks[0] = nil
	if Kernels()[0] == nil {
		t.Error("Kernels returned the shared suite slice, not a fresh one")
	}
}

func TestCaseComputedOnceUnderConcurrency(t *testing.T) {
	kk := *KernelByName("fir")
	var calls atomic.Int64
	kk.Reference = func(args []interface{}) []interface{} {
		calls.Add(1)
		return firRef(args)
	}
	const workers = 32
	got := make([]*Case, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = kk.Case(96)
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("worker %d got a different *Case than worker 0", i)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("reference computed %d times, want once", n)
	}
}

func TestCaseInputsIsolated(t *testing.T) {
	kk := *KernelByName("fir")
	kk.Reference = func(args []interface{}) []interface{} {
		y := firRef(args)
		args[0].(*ir.Array).F[0] = 42 // a reference that scribbles on its inputs
		return y
	}
	const n = 32
	c := kk.Case(n)
	fresh := kk.Inputs(n)
	if !reflect.DeepEqual(c.Args(), fresh) {
		t.Fatal("the reference's writes reached the memoized inputs")
	}
	run := c.Args()
	run[0].(*ir.Array).F[1] = 42 // a run that scribbles on its inputs
	if !reflect.DeepEqual(c.Args(), fresh) {
		t.Fatal("one run's writes reached the next run's inputs")
	}
}

func TestCaseCacheBounded(t *testing.T) {
	k := KernelByName("fir")
	cc := newCaseCache(DefaultOracleCacheSize)
	has := func(n int) bool {
		cc.mu.Lock()
		defer cc.mu.Unlock()
		_, ok := cc.entries[caseKey{k, n}]
		return ok
	}
	const first = 8
	for i := 0; i < DefaultOracleCacheSize+10; i++ {
		cc.get(k, first+i)
		if l := cc.len(); l > DefaultOracleCacheSize {
			t.Fatalf("after %d inserts the cache holds %d entries, cap %d", i+1, l, DefaultOracleCacheSize)
		}
		if oldest := i - DefaultOracleCacheSize; oldest >= 0 {
			if has(first + oldest) {
				t.Fatalf("insert %d did not evict the oldest size %d", i+1, first+oldest)
			}
			if !has(first + oldest + 1) {
				t.Fatalf("insert %d evicted size %d before the older size %d", i+1, first+oldest+1, first+oldest)
			}
		}
	}
	// A lookup refreshes recency: the oldest entry survives the next
	// insert once it has been asked for again.
	oldest := first + 10
	cc.get(k, oldest)
	cc.get(k, first+DefaultOracleCacheSize+10)
	if !has(oldest) {
		t.Error("a recently used entry was evicted")
	}
	if has(oldest + 1) {
		t.Error("the least recently used entry survived an insert at capacity")
	}
}

func TestCaseKeyedOnKernelIdentity(t *testing.T) {
	proc := pdesc.Builtin("dspasip")
	fir := KernelByName("fir")
	const n = 64
	if _, err := RunPipeline(fir, core.Proposed(proc), n); err != nil {
		t.Fatal(err) // warms the suite kernel's memo
	}
	bad := *fir
	bad.Reference = func(args []interface{}) []interface{} {
		y := firRef(args)[0].(*ir.Array)
		y.F[len(y.F)-1] += 1
		return []interface{}{y}
	}
	if bad.Case(n) == fir.Case(n) {
		t.Fatal("a copy of fir shares the suite kernel's oracle entry")
	}
	_, err := RunPipeline(&bad, core.Proposed(proc), n)
	if err == nil || !strings.Contains(err.Error(), "fir: result 0[") {
		t.Fatalf("RunPipeline against a wrong reference: got err %v, want a verification failure", err)
	}
}

// oracleSink keeps the benchmarked calls' results live.
var oracleSink []interface{}

// BenchmarkOracle compares what a verified run pays for its oracle
// with the memo (a warm Case lookup plus the input copies) against
// recomputing the fft reference at n=256.
func BenchmarkOracle(b *testing.B) {
	const n = 256
	k := KernelByName("fft")
	b.Run("memo", func(b *testing.B) {
		k.Case(n)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracleSink = k.Case(n).Args()
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracleSink = k.Reference(k.Inputs(n))
		}
	})
}
