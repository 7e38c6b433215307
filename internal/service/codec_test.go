package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	mat2c "mat2c"
	"mat2c/internal/bench"
)

// refDecodeArgs, refDecodeArg and refEncodeValue are the reflective
// codec the byte scanner and appendValue replaced, kept as the
// reference the tests below compare against.
func refDecodeArgs(text string, types []mat2c.Type) ([]interface{}, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal([]byte(text), &raw); err != nil {
		return nil, fmt.Errorf("argument list: %w", err)
	}
	if len(raw) != len(types) {
		return nil, fmt.Errorf("argument list has %d values, entry takes %d", len(raw), len(types))
	}
	out := make([]interface{}, len(raw))
	for i, r := range raw {
		v, err := refDecodeArg(r, types[i])
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

func refDecodeArg(raw json.RawMessage, t mat2c.Type) (interface{}, error) {
	var num float64
	if err := json.Unmarshal(raw, &num); err == nil {
		if t.Class == mat2c.Int {
			return int64(num), nil
		}
		if t.Class == mat2c.Complex {
			return complex(num, 0), nil
		}
		return num, nil
	}
	var vec []float64
	if err := json.Unmarshal(raw, &vec); err == nil {
		return mat2c.NewVector(vec...), nil
	}
	var obj struct {
		Rows    int          `json:"rows"`
		Cols    int          `json:"cols"`
		Data    []float64    `json:"data"`
		Complex [][2]float64 `json:"complex"`
	}
	if err := json.Unmarshal(raw, &obj); err != nil {
		return nil, fmt.Errorf("cannot decode %s", string(raw))
	}
	if obj.Complex != nil {
		vals := make([]complex128, len(obj.Complex))
		for i, p := range obj.Complex {
			vals[i] = complex(p[0], p[1])
		}
		return mat2c.NewComplexVector(vals...), nil
	}
	if obj.Rows > 0 && obj.Cols > 0 {
		return mat2c.NewMatrix(obj.Rows, obj.Cols, obj.Data)
	}
	return nil, fmt.Errorf("unrecognized argument form %s", string(raw))
}

func refEncodeValue(v interface{}) interface{} {
	switch v := v.(type) {
	case *mat2c.Array:
		if v.C != nil {
			pairs := make([][2]float64, len(v.C))
			for i, c := range v.C {
				pairs[i] = [2]float64{real(c), imag(c)}
			}
			return map[string]interface{}{"rows": v.Rows, "cols": v.Cols, "complex": pairs}
		}
		return map[string]interface{}{"rows": v.Rows, "cols": v.Cols, "data": v.F}
	case complex128:
		return [2]float64{real(v), imag(v)}
	default:
		return v
	}
}

// typeOf is the declared type a value of v's form decodes under.
func typeOf(v interface{}) mat2c.Type {
	switch v := v.(type) {
	case int64:
		return intT
	case complex128:
		return complexT
	case *mat2c.Array:
		if v.C != nil {
			return mat2c.Matrix(mat2c.Complex)
		}
		return realMatT
	}
	return realT
}

// codecValues covers every form appendValue writes and DecodeArg reads
// back, in every shape class, with floats at encoding/json's format
// boundaries.
func codecValues() []interface{} {
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 1e-7, 9.99e-7, -1.5e-300,
		1e20, 1e21, 123456789012345678, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3}
	vals := []interface{}{int64(0), int64(-7), int64(1) << 53, complex(1.5, -2), complex(0, 1e-9)}
	for _, f := range floats {
		vals = append(vals, f)
	}
	for _, shape := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {3, 4}} {
		r, c := shape[0], shape[1]
		re := realArray(r, c, make([]float64, r*c)...)
		cx := complexArray(r, c, make([]complex128, r*c)...)
		for i := range re.F {
			f := floats[i%len(floats)]
			re.F[i] = f
			cx.C[i] = complex(-f, f/3)
		}
		vals = append(vals, re, cx)
	}
	for _, shape := range [][2]int{{1, 0}, {0, 1}, {0, 3}, {0, 0}} {
		vals = append(vals, realArray(shape[0], shape[1]), complexArray(shape[0], shape[1]))
	}
	return vals
}

// TestCodecRoundTrip: DecodeArg(EncodeValue(v), typeOf(v)) is v for
// every form and shape, empty arrays, complex scalars and complex
// matrices included.
func TestCodecRoundTrip(t *testing.T) {
	for _, v := range codecValues() {
		enc, err := json.Marshal(EncodeValue(v))
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		got, err := DecodeArg(enc, typeOf(v))
		if err != nil {
			t.Errorf("decode %s: %v", enc, err)
		} else if !sameValue(got, v) {
			t.Errorf("%s decodes to %#v, want %#v", enc, got, v)
		}
	}
}

// TestEncodeValueMatchesReference: appendValue writes the bytes
// encoding/json made of the reference's map and pair forms, for the
// edge values above and for every input the run-loop benchmark's
// catalog sends, so its request bodies do not change.
func TestEncodeValueMatchesReference(t *testing.T) {
	vals := append(codecValues(), true, false)
	for _, k := range bench.Kernels() {
		for _, s := range []float64{0.05, 0.125, 0.25, 0.5} {
			vals = append(vals, k.Inputs(bench.SizeFor(k, s))...)
		}
	}
	for _, v := range vals {
		want, err := json.Marshal(refEncodeValue(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(EncodeValue(v))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("EncodeValue(%v) = %s (%v), want %s", v, got, err, want)
		}
	}
	for _, v := range []interface{}{math.NaN(), math.Inf(-1), complex(math.Inf(1), 0), realArray(1, 2, 1, math.NaN())} {
		if b, err := json.Marshal(EncodeValue(v)); err == nil {
			t.Errorf("EncodeValue(%v) marshals to %s, want an error", v, b)
		}
	}
}

// fuzzTypes are the declared types FuzzDecodeArgs draws from; the
// decoders read only the class and whether the type is a scalar.
var fuzzTypes = []mat2c.Type{
	realT, intT, complexT, mat2c.Scalar(mat2c.Bool),
	realVecT, cplxVecT, realMatT, mat2c.Matrix(mat2c.Complex),
}

func fuzzTypeIndex(t mat2c.Type) byte {
	for i, f := range fuzzTypes {
		if f.Class == t.Class && f.IsScalar() == t.IsScalar() {
			return byte(i)
		}
	}
	panic(fmt.Sprintf("no fuzz type for %v", t))
}

// FuzzDecodeArgs holds the byte scanner to the reflective reference
// (as /run called it, with an absent list read as []) both ways:
// whatever the scanner accepts, the reference accepts with the same
// values, apart from the two fixes explained by fixedByScanner; and
// whatever the reference accepts, the scanner accepts too, unless
// outsideGrammar shows a quirk the scanner drops on purpose.
func FuzzDecodeArgs(f *testing.F) {
	// The run-loop benchmark's catalog: every kernel at its three scales.
	for _, k := range bench.Kernels() {
		sel := make([]byte, len(k.Params))
		for i, p := range k.Params {
			sel[i] = fuzzTypeIndex(p)
		}
		for _, scale := range []float64{0.125, 0.25, 0.5} {
			enc := make([]interface{}, 0, len(k.Params))
			for _, a := range k.Inputs(bench.SizeFor(k, scale)) {
				enc = append(enc, refEncodeValue(a))
			}
			list, err := json.Marshal(enc)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(list, sel)
		}
	}
	f.Add([]byte(`[2.5, [1.5,-2], {"rows":2,"cols":1,"complex":[[1,2],[3,4]]}, {"rows":2,"cols":2,"data":[1,2,3,4]}]`), []byte{1, 2, 7, 6})
	f.Add([]byte(`[null, {"ROWS":1,"cols":1}, {"complex":[[1]]}, {"rows":1,"cols":1,"x":2}]`), []byte{0, 6, 5, 6})
	f.Fuzz(func(t *testing.T, data, sel []byte) {
		if bigInt.Match(data) {
			t.Skip()
		}
		types := make([]mat2c.Type, len(sel))
		for i, s := range sel {
			types[i] = fuzzTypes[int(s)%len(fuzzTypes)]
		}
		got, err := decodeArgs(data, types)
		text := string(data)
		if strings.TrimLeft(text, " \t\r\n") == "" {
			text = "[]"
		}
		want, refErr := refDecodeArgs(text, types)
		switch {
		case err == nil && refErr != nil && !emptyByScanner(got, refErr):
			t.Fatalf("scanner accepts %q, reference rejects it: %v", data, refErr)
		case err == nil:
			for i := range got {
				if !sameValue(got[i], want[i]) && !fixedByScanner(got[i], want[i], types[i]) {
					t.Fatalf("%q argument %d: scanner %#v, reference %#v", data, i+1, got[i], want[i])
				}
			}
		case refErr == nil && !outsideGrammar(data):
			t.Fatalf("reference accepts %q, scanner rejects it: %v", data, err)
		case refErr != nil && strings.HasPrefix(refErr.Error(), "argument list") && err.Error() != refErr.Error():
			t.Fatalf("%q: scanner says %q, reference %q", data, err, refErr)
		}
	})
}

// bigInt matches an integer part of four or more digits. The reference
// allocates a rows x cols matrix without data as asked, so such a rows
// or cols could make one input cost it gigabytes.
var bigInt = regexp.MustCompile(`(^|[^0-9.])[0-9]{4}`)

// fixedByScanner reports whether got and want differ only by the two
// decoding bugs the scanner fixed: [re, im] under a complex scalar
// type, which the reference read as a real 1x2 vector, and a complex
// matrix's rows and cols, which the reference dropped.
func fixedByScanner(got, want interface{}, t mat2c.Type) bool {
	w, ok := want.(*mat2c.Array)
	if !ok {
		return false
	}
	if c, ok := got.(complex128); ok {
		return t.Class == mat2c.Complex && t.IsScalar() && w.C == nil && len(w.F) == 2 &&
			sameValue(c, complex(w.F[0], w.F[1]))
	}
	g, ok := got.(*mat2c.Array)
	return ok && g.C != nil && w.C != nil && w.Rows == 1 &&
		sameValue(&mat2c.Array{Elem: g.Elem, Rows: 1, Cols: g.Rows * g.Cols, C: g.C}, w)
}

// emptyByScanner reports whether the reference rejected a list the
// scanner accepts only at an argument the scanner read as an empty real
// matrix: both extents given, one of them zero, and an explicit empty
// data list, a form the reference did not accept.
func emptyByScanner(got []interface{}, refErr error) bool {
	var i int
	if _, err := fmt.Sscanf(refErr.Error(), "argument %d: unrecognized argument form", &i); err != nil || i < 1 || i > len(got) {
		return false
	}
	a, ok := got[i-1].(*mat2c.Array)
	return ok && a.C == nil && a.Len() == 0
}

// outsideGrammar reports whether valid JSON data uses a quirk of the
// reflective decoder that the scanner rejects on purpose: a null, an
// object key other than the four spelled exactly (case-folded, escaped
// or unknown), a complex element that is not an [re, im] pair, a
// complex matrix whose rows and cols do not match its element count,
// or a complex list with only one extent, or with extents that are not
// both positive (unless the list is empty and both are at least zero).
func outsideGrammar(data []byte) bool {
	if bytes.IndexByte(data, '\\') >= 0 {
		return true // only object keys can hold an escape in the grammar
	}
	var v interface{}
	if err := json.Unmarshal(data, &v); err != nil {
		return false
	}
	var walk func(v interface{}) bool
	walk = func(v interface{}) bool {
		switch v := v.(type) {
		case nil:
			return true
		case []interface{}:
			for _, e := range v {
				if walk(e) {
					return true
				}
			}
		case map[string]interface{}:
			for k, e := range v {
				switch k {
				case "rows", "cols", "data":
				case "complex":
					pairs, ok := e.([]interface{})
					for _, p := range pairs {
						if p, ok := p.([]interface{}); !ok || len(p) != 2 {
							return true
						}
					}
					rows, hasRows := v["rows"].(float64)
					cols, hasCols := v["cols"].(float64)
					if ok && rows > 0 && cols > 0 && int(rows)*int(cols) != len(pairs) {
						return true
					}
					empty := ok && len(pairs) == 0 && hasRows && hasCols && rows >= 0 && cols >= 0
					if (hasRows || hasCols) && !(rows > 0 && cols > 0) && !empty {
						return true
					}
				default:
					return true
				}
				if walk(e) {
					return true
				}
			}
		}
		return false
	}
	return walk(v)
}

// TestAppendJSONIndentsToReference: the compact /compile and /run
// replies indent to exactly the bytes the reflective writer sent, with
// and without every optional field, for strings encoding/json must
// escape and for every result form.
func TestAppendJSONIndentsToReference(t *testing.T) {
	odd := "a<b>&c \"q\" \\ \b\f\n\r\t \x00\x1f\x7f \u2028\u2029 \xff\xfe ok é 𝄞"
	full := CompileResponse{
		Entry: "f" + odd, Target: "dspasip", CacheKey: "9f41", CacheHit: false, ElapsedUS: 512,
		StagesUS: map[string]int64{"parse": 21, "sema": 35, "vm-lower": 0, odd: 3},
		CSource:  "int f(void) {\n\treturn a < b && c > d;\n}\n" + odd, CHeader: "#pragma once\n", CPrototype: "int f(void);",
		CodeSize: 63, VectorizedLoops: 1,
		Intrinsics: map[string]int{"vfma": 1, "cmul": 2},
		Warnings:   []string{"w1", odd},
	}
	empty := CompileResponse{Entry: "f", Target: "t", CacheKey: "k", CacheHit: true,
		StagesUS: map[string]int64{}, Intrinsics: map[string]int{}, Warnings: []string{}}
	results := append([]interface{}{true}, codecValues()...)

	check := func(name string, v interface{}, compact []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		writeJSON(rec, v)
		var got bytes.Buffer
		if err := json.Indent(&got, compact, "", "  "); err != nil {
			t.Fatalf("%s: %v in %s", name, err, compact)
		}
		if !bytes.Equal(got.Bytes(), rec.Body.Bytes()) {
			t.Errorf("%s:\ncompact, indented: %s\nreference:         %s", name, got.Bytes(), rec.Body.Bytes())
		}
	}
	for _, cr := range []CompileResponse{full, empty} {
		check("compile "+cr.Entry, &cr, cr.appendJSON(nil))
		for _, rs := range [][]interface{}{nil, {}, results} {
			rr := RunResponse{CompileResponse: cr, Results: rs, Cycles: 118, Instructions: 57}
			if rs != nil {
				rr.ClassCounts = map[string]int64{"vload": 1, "vop": 2, "zero": 0}
			}
			compact, err := rr.appendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := rr
			if rs != nil {
				ref.Results = make([]interface{}, len(rs))
				for i, v := range rs {
					ref.Results[i] = refEncodeValue(v)
				}
			}
			check(fmt.Sprintf("run %s with %d results", cr.Entry, len(rs)), &ref, compact)
		}
	}

	rr := RunResponse{CompileResponse: empty, Results: []interface{}{1.0, realArray(1, 2, 0, math.Inf(1))}}
	if b, err := rr.appendJSON(nil); err == nil || err.Error() != "result 2: json: unsupported value: +Inf" {
		t.Errorf("a reply with an infinite result = %s, %v; want the unsupported-value error", b, err)
	}
}
