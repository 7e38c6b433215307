// Package bench defines the six DSP benchmark kernels and the harness
// that regenerates the paper's evaluation: the headline speedup table
// (baseline MATLAB-Coder-style code vs. the proposed compiler on the
// DSP ASIP), the feature-ablation figure, the SIMD-width sweep, and the
// static code-size table.
//
// Each kernel carries its MATLAB source (written the way a MATLAB user
// writes DSP code — slice/vector operations where natural), a
// deterministic input generator, and an independent Go reference
// implementation; the harness verifies every pipeline's numerical output
// against the reference before reporting cycles, so a benchmark result
// is also a correctness proof.
package bench

import (
	"math"
	"math/cmplx"

	"mat2c/internal/ir"
	"mat2c/internal/sema"
)

// Kernel is one benchmark.
type Kernel struct {
	Name string
	// Desc is a one-line description used in reports.
	Desc string
	// Source is the MATLAB program; Entry its entry function.
	Source string
	Entry  string
	// Params are the entry parameter types.
	Params []sema.Type
	// Inputs builds deterministic inputs for a problem size n.
	Inputs func(n int) []interface{}
	// Reference computes the expected outputs in Go. Inputs and
	// Reference must be pure: Case memoizes their results.
	Reference func(args []interface{}) []interface{}
	// DefaultSize is the paper-scale problem size used by the tables.
	DefaultSize int
}

// rng is a small deterministic generator (SplitMix64) so inputs are
// stable across runs and platforms.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a value in (-1, 1).
func (r *rng) float() float64 {
	return float64(int64(r.next()>>11))/(1<<52) - 1.0
}

func (r *rng) floatArr(rows, cols int) *ir.Array {
	a := ir.NewFloatArray(rows, cols)
	for i := range a.F {
		a.F[i] = r.float()
	}
	return a
}

func (r *rng) complexArr(rows, cols int) *ir.Array {
	a := ir.NewComplexArray(rows, cols)
	for i := range a.C {
		a.C[i] = complex(r.float(), r.float())
	}
	return a
}

func dynRow(class sema.Class) sema.Type {
	return sema.Type{Class: class, Shape: sema.Shape{Rows: 1, Cols: sema.DimUnknown}}
}

func dynMat(class sema.Class) sema.Type {
	return sema.Type{Class: class, Shape: sema.Shape{Rows: sema.DimUnknown, Cols: sema.DimUnknown}}
}

const firTaps = 16

// firSource is a real FIR filter in the tap-outer, slice-inner form a
// MATLAB user writes (each tap updates the whole output slice).
const firSource = `function y = fir(x, h)
% FIR filter: y(i) = sum_k h(k) * x(i-k+1), slice formulation.
n = length(x);
t = length(h);
y = zeros(1, n);
for k = 1:t
    y(t:n) = y(t:n) + h(k) .* x(t-k+1:n-k+1);
end
end`

func firRef(args []interface{}) []interface{} {
	x := args[0].(*ir.Array).F
	h := args[1].(*ir.Array).F
	n, t := len(x), len(h)
	y := ir.NewFloatArray(1, n)
	for i := t - 1; i < n; i++ {
		acc := 0.0
		for k := 0; k < t; k++ {
			acc += h[k] * x[i-k]
		}
		y.F[i] = acc
	}
	return []interface{}{y}
}

const iirSections = 4

// iirSource is a cascade of biquad sections in direct form II
// (transposed state recurrence): inherently sequential, the paper's
// low-speedup case.
const iirSource = `function y = iirsos(x, sos)
% Cascade of second-order sections; sos is 6 x nsec:
% rows are b0 b1 b2 a0 a1 a2 (a0 assumed 1).
n = length(x);
nsec = size(sos, 2);
y = zeros(1, n);
y(1:n) = x(1:n);
for s = 1:nsec
    b0 = sos(1, s);
    b1 = sos(2, s);
    b2 = sos(3, s);
    a1 = sos(5, s);
    a2 = sos(6, s);
    w1 = 0;
    w2 = 0;
    for i = 1:n
        w0 = y(i) - a1 * w1 - a2 * w2;
        y(i) = b0 * w0 + b1 * w1 + b2 * w2;
        w2 = w1;
        w1 = w0;
    end
end
end`

func iirRef(args []interface{}) []interface{} {
	x := args[0].(*ir.Array).F
	sos := args[1].(*ir.Array)
	n := len(x)
	nsec := sos.Cols
	y := ir.NewFloatArray(1, n)
	copy(y.F, x)
	at := func(r, c int) float64 { return sos.F[r+c*6] }
	for s := 0; s < nsec; s++ {
		b0, b1, b2 := at(0, s), at(1, s), at(2, s)
		a1, a2 := at(4, s), at(5, s)
		w1, w2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			w0 := y.F[i] - a1*w1 - a2*w2
			y.F[i] = b0*w0 + b1*w1 + b2*w2
			w2 = w1
			w1 = w0
		}
	}
	return []interface{}{y}
}

// stableSOS builds nsec stable biquads deterministically.
func stableSOS(r *rng, nsec int) *ir.Array {
	sos := ir.NewFloatArray(6, nsec)
	for s := 0; s < nsec; s++ {
		// Poles inside the unit circle.
		rad := 0.3 + 0.5*math.Abs(r.float())
		th := math.Pi * math.Abs(r.float())
		a1 := -2 * rad * math.Cos(th)
		a2 := rad * rad
		sos.F[0+s*6] = 0.25 + 0.5*math.Abs(r.float()) // b0
		sos.F[1+s*6] = r.float() * 0.5                // b1
		sos.F[2+s*6] = r.float() * 0.25               // b2
		sos.F[3+s*6] = 1                              // a0
		sos.F[4+s*6] = a1
		sos.F[5+s*6] = a2
	}
	return sos
}

// fftSource is an in-place iterative radix-2 DIT FFT with precomputed
// twiddle factors (w(k) = exp(-2i*pi*(k-1)/n), length n/2).
const fftSource = `function y = fftr2(x, w)
% Iterative radix-2 decimation-in-time FFT.
n = length(x);
y = zeros(1, n);
y(1:n) = x(1:n);
% Bit-reversal permutation.
j = 1;
for i = 1:n-1
    if i < j
        t = y(j);
        y(j) = y(i);
        y(i) = t;
    end
    k = fix(n / 2);
    while k < j
        j = j - k;
        k = fix(k / 2);
    end
    j = j + k;
end
% Butterfly stages.
len = 2;
while len <= n
    half = fix(len / 2);
    step = fix(n / len);
    i0 = 1;
    while i0 <= n - len + 1
        for k = 0:half-1
            t = w(k * step + 1) * y(i0 + k + half);
            y(i0 + k + half) = y(i0 + k) - t;
            y(i0 + k) = y(i0 + k) + t;
        end
        i0 = i0 + len;
    end
    len = len * 2;
end
end`

// fftRef is a direct O(n^2) DFT — an independent oracle (no
// butterflies, no bit reversal). Term (k, t) multiplies by the root of
// unity exp(-2πi·kt/n) = roots[(k*t) % n], read from an n-entry table.
func fftRef(args []interface{}) []interface{} {
	x := args[0].(*ir.Array).C
	n := len(x)
	roots := make([]complex128, n)
	for j := range roots {
		roots[j] = cmplx.Exp(complex(0, -2*math.Pi*float64(j)/float64(n)))
	}
	y := ir.NewComplexArray(1, n)
	for k := 0; k < n; k++ {
		var acc complex128
		j := 0 // (k*t) % n, stepped without a division
		for t := 0; t < n; t++ {
			acc += x[t] * roots[j]
			if j += k; j >= n {
				j -= n
			}
		}
		y.C[k] = acc
	}
	return []interface{}{y}
}

func twiddles(n int) *ir.Array {
	w := ir.NewComplexArray(1, n/2)
	for k := 0; k < n/2; k++ {
		w.C[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	return w
}

// matmulSource multiplies two real matrices with the * operator; the
// compiler lowers it to the column-major saxpy triple nest.
const matmulSource = `function c = matmul(a, b)
c = a * b;
end`

func matmulRef(args []interface{}) []interface{} {
	a := args[0].(*ir.Array)
	b := args[1].(*ir.Array)
	m, kk, n := a.Rows, a.Cols, b.Cols
	c := ir.NewFloatArray(m, n)
	for j := 0; j < n; j++ {
		for k := 0; k < kk; k++ {
			bkj := b.F[k+j*kk]
			for i := 0; i < m; i++ {
				c.F[i+j*m] += a.F[i+k*m] * bkj
			}
		}
	}
	return []interface{}{c}
}

const xcorrMaxLag = 32

// xcorrSource computes the cross-correlation of two real sequences over
// lags -maxlag..maxlag.
const xcorrSource = `function r = xcorr(x, y, maxlag)
% Cross-correlation r(lag) = sum_i x(i) * y(i + lag).
n = length(x);
r = zeros(1, 2 * maxlag + 1);
for lag = -maxlag:maxlag
    acc = 0;
    lo = max(1, 1 - lag);
    hi = min(n, n - lag);
    for i = lo:hi
        acc = acc + x(i) * y(i + lag);
    end
    r(lag + maxlag + 1) = acc;
end
end`

func xcorrRef(args []interface{}) []interface{} {
	x := args[0].(*ir.Array).F
	y := args[1].(*ir.Array).F
	maxlag := int(args[2].(int64))
	n := len(x)
	r := ir.NewFloatArray(1, 2*maxlag+1)
	for lag := -maxlag; lag <= maxlag; lag++ {
		acc := 0.0
		lo := 0
		if -lag > lo {
			lo = -lag
		}
		hi := n
		if n-lag < hi {
			hi = n - lag
		}
		for i := lo; i < hi; i++ {
			acc += x[i] * y[i+lag]
		}
		r.F[lag+maxlag] = acc
	}
	return []interface{}{r}
}

const cfirTaps = 16

// cfirSource is a complex FIR (channel/matched filter): the paper's
// high-speedup case — elementwise complex slice arithmetic that fuses,
// vectorizes, and maps onto the complex-arithmetic ISA.
const cfirSource = `function y = cfir(x, h)
% Complex FIR filter, slice formulation with conjugated taps
% (matched filter): y(i) = sum_k conj(h(k)) * x(i-k+1).
n = length(x);
t = length(h);
y = zeros(1, n);
for k = 1:t
    y(t:n) = y(t:n) + conj(h(k)) .* x(t-k+1:n-k+1);
end
end`

func cfirRef(args []interface{}) []interface{} {
	x := args[0].(*ir.Array).C
	h := args[1].(*ir.Array).C
	n, t := len(x), len(h)
	y := ir.NewComplexArray(1, n)
	for i := t - 1; i < n; i++ {
		var acc complex128
		for k := 0; k < t; k++ {
			acc += cmplx.Conj(h[k]) * x[i-k]
		}
		y.C[i] = acc
	}
	return []interface{}{y}
}

// suite is the six benchmarks in report order, built once so that each
// kernel has one identity for the oracle cache to key on.
var suite = []*Kernel{
	{
		Name: "fir", Desc: "real FIR filter (16 taps, slice form)",
		Source: firSource, Entry: "fir",
		Params:      []sema.Type{dynRow(sema.Real), dynRow(sema.Real)},
		DefaultSize: 1024,
		Inputs: func(n int) []interface{} {
			r := newRng(1001)
			return []interface{}{r.floatArr(1, n), r.floatArr(1, firTaps)}
		},
		Reference: firRef,
	},
	{
		Name: "iirsos", Desc: "IIR biquad cascade (4 sections, recurrence)",
		Source: iirSource, Entry: "iirsos",
		Params:      []sema.Type{dynRow(sema.Real), dynMat(sema.Real)},
		DefaultSize: 1024,
		Inputs: func(n int) []interface{} {
			r := newRng(2002)
			return []interface{}{r.floatArr(1, n), stableSOS(r, iirSections)}
		},
		Reference: iirRef,
	},
	{
		Name: "fft", Desc: "radix-2 complex FFT (in-place, precomputed twiddles)",
		Source: fftSource, Entry: "fftr2",
		Params:      []sema.Type{dynRow(sema.Complex), dynRow(sema.Complex)},
		DefaultSize: 1024,
		Inputs: func(n int) []interface{} {
			r := newRng(3003)
			return []interface{}{r.complexArr(1, n), twiddles(n)}
		},
		Reference: fftRef,
	},
	{
		Name: "matmul", Desc: "real matrix multiply (C = A*B)",
		Source: matmulSource, Entry: "matmul",
		Params:      []sema.Type{dynMat(sema.Real), dynMat(sema.Real)},
		DefaultSize: 48,
		Inputs: func(n int) []interface{} {
			r := newRng(4004)
			return []interface{}{r.floatArr(n, n), r.floatArr(n, n)}
		},
		Reference: matmulRef,
	},
	{
		Name: "xcorr", Desc: "cross-correlation (±32 lags)",
		Source: xcorrSource, Entry: "xcorr",
		Params:      []sema.Type{dynRow(sema.Real), dynRow(sema.Real), sema.IntScalar},
		DefaultSize: 1024,
		Inputs: func(n int) []interface{} {
			r := newRng(5005)
			return []interface{}{r.floatArr(1, n), r.floatArr(1, n), int64(xcorrMaxLag)}
		},
		Reference: xcorrRef,
	},
	{
		Name: "cfir", Desc: "complex FIR / matched filter (16 taps)",
		Source: cfirSource, Entry: "cfir",
		Params:      []sema.Type{dynRow(sema.Complex), dynRow(sema.Complex)},
		DefaultSize: 1024,
		Inputs: func(n int) []interface{} {
			r := newRng(6006)
			return []interface{}{r.complexArr(1, n), r.complexArr(1, cfirTaps)}
		},
		Reference: cfirRef,
	},
}

// Kernels returns the six benchmarks in report order: a fresh slice
// over the shared suite kernels, which callers must not modify.
func Kernels() []*Kernel { return append([]*Kernel(nil), suite...) }

// KernelByName returns the named suite kernel (shared; do not modify),
// or nil.
func KernelByName(name string) *Kernel {
	for _, k := range suite {
		if k.Name == name {
			return k
		}
	}
	return nil
}
