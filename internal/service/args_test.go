package service

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	mat2c "mat2c"
)

func TestDecodeArgsForms(t *testing.T) {
	types := []mat2c.Type{
		mat2c.Scalar(mat2c.Real),
		mat2c.Scalar(mat2c.Int),
		mat2c.Scalar(mat2c.Complex),
		mat2c.Vector(mat2c.Real),
		mat2c.Vector(mat2c.Complex),
		mat2c.Matrix(mat2c.Real),
	}
	args, err := DecodeArgs(`[2.5, 3, 4, [1,2,3], {"complex":[[1,2],[3,-1]]}, {"rows":2,"cols":2,"data":[1,2,3,4]}]`, types)
	if err != nil {
		t.Fatal(err)
	}
	if got := args[0].(float64); got != 2.5 {
		t.Errorf("arg0 = %v", got)
	}
	if got := args[1].(int64); got != 3 {
		t.Errorf("arg1 = %v", got)
	}
	if got := args[2].(complex128); got != complex(4, 0) {
		t.Errorf("arg2 = %v", got)
	}
	if v := args[3].(*mat2c.Array); !reflect.DeepEqual(v.F, []float64{1, 2, 3}) {
		t.Errorf("arg3 = %v", v.F)
	}
	if v := args[4].(*mat2c.Array); v.C[1] != complex(3, -1) {
		t.Errorf("arg4 = %v", v.C)
	}
	if v := args[5].(*mat2c.Array); v.Rows != 2 || v.Cols != 2 || v.F[3] != 4 {
		t.Errorf("arg5 = %+v", v)
	}
}

func TestDecodeArgsErrors(t *testing.T) {
	types := []mat2c.Type{mat2c.Scalar(mat2c.Real)}
	if _, err := DecodeArgs(`[1, 2]`, types); err == nil {
		t.Error("arity mismatch not rejected")
	}
	if _, err := DecodeArgs(`not json`, types); err == nil {
		t.Error("malformed JSON not rejected")
	}
	if _, err := DecodeArgs(`[{"weird": true}]`, types); err == nil {
		t.Error("unrecognized argument form not rejected")
	}
}

func TestEncodeValueRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		v    interface{}
		want string
	}{
		{mat2c.NewVector(1, 2, 3), `{"cols":3,"data":[1,2,3],"rows":1}`},
		{complexArray(2, 1, complex(1, 2), complex(-0.5, 1e-7)), `{"cols":1,"complex":[[1,2],[-0.5,1e-7]],"rows":2}`},
		{complex(1.0, -2.0), `[1,-2]`},
		{float64(7), `7`},
		{1e21, `1e+21`},
		{1e20, `100000000000000000000`},
		{0.000001, `0.000001`},
		{int64(7), `7`},
	} {
		data, err := json.Marshal(EncodeValue(tc.v))
		if err != nil || string(data) != tc.want {
			t.Errorf("EncodeValue(%v) = %s (%v), want %s", tc.v, data, err, tc.want)
			continue
		}
		got, err := DecodeArg(data, typeOf(tc.v))
		if err != nil || !sameValue(got, tc.v) {
			t.Errorf("DecodeArg(%s) = %#v, %v; want %#v", data, got, err, tc.v)
		}
	}
}

// realArray and complexArray build expected decoder values.
func realArray(rows, cols int, vals ...float64) *mat2c.Array {
	if vals == nil {
		vals = []float64{}
	}
	a, err := mat2c.NewMatrix(rows, cols, vals)
	if err != nil {
		panic(err)
	}
	return a
}

func complexArray(rows, cols int, vals ...complex128) *mat2c.Array {
	if vals == nil {
		vals = []complex128{}
	}
	a, err := mat2c.NewComplexMatrix(rows, cols, vals)
	if err != nil {
		panic(err)
	}
	return a
}

// sameValue reports whether two decoded arguments are the same Go
// type with the same shape and bit-identical elements.
func sameValue(a, b interface{}) bool {
	x, okx := a.(*mat2c.Array)
	y, oky := b.(*mat2c.Array)
	if !okx || !oky {
		return okx == oky && a == b
	}
	if x.Elem != y.Elem || x.Rows != y.Rows || x.Cols != y.Cols || len(x.F) != len(y.F) || len(x.C) != len(y.C) {
		return false
	}
	for i := range x.F {
		if math.Float64bits(x.F[i]) != math.Float64bits(y.F[i]) {
			return false
		}
	}
	for i := range x.C {
		if math.Float64bits(real(x.C[i])) != math.Float64bits(real(y.C[i])) ||
			math.Float64bits(imag(x.C[i])) != math.Float64bits(imag(y.C[i])) {
			return false
		}
	}
	return true
}

var (
	realT    = mat2c.Scalar(mat2c.Real)
	intT     = mat2c.Scalar(mat2c.Int)
	complexT = mat2c.Scalar(mat2c.Complex)
	realVecT = mat2c.Vector(mat2c.Real)
	cplxVecT = mat2c.Vector(mat2c.Complex)
	realMatT = mat2c.Matrix(mat2c.Real)
)

// TestDecodeArgPinned pins every accepted argument form and error text
// of DecodeArg.
func TestDecodeArgPinned(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		typ  mat2c.Type
		want interface{} // nil when err is set
		err  string
	}{
		{raw: `2.5`, typ: realT, want: 2.5},
		{raw: " \t2.5\n", typ: realT, want: 2.5},
		{raw: `-0`, typ: realT, want: math.Copysign(0, -1)},
		{raw: `1E3`, typ: realT, want: 1000.0},
		{raw: `3.9`, typ: intT, want: int64(3)},
		{raw: `-3.9`, typ: intT, want: int64(-3)},
		{raw: `4`, typ: complexT, want: complex(4, 0)},
		{raw: `2.5`, typ: realVecT, want: 2.5},
		{raw: `[1,2,3]`, typ: realVecT, want: realArray(1, 3, 1, 2, 3)},
		{raw: `[ 1 , 2 ]`, typ: realMatT, want: realArray(1, 2, 1, 2)},
		{raw: `[]`, typ: realVecT, want: realArray(1, 0)},
		{raw: `[1.5,-2]`, typ: realT, want: realArray(1, 2, 1.5, -2)},
		{raw: `{"rows":2,"cols":2,"data":[1,2,3,4]}`, typ: realMatT, want: realArray(2, 2, 1, 2, 3, 4)},
		{raw: `{"data":[1,2],"cols":1,"rows":2}`, typ: realMatT, want: realArray(2, 1, 1, 2)},
		{raw: `{"rows":2,"cols":3}`, typ: realMatT, want: realArray(2, 3, 0, 0, 0, 0, 0, 0)},
		{raw: `{"rows":1,"cols":1,"rows":2,"data":[1,2]}`, typ: realMatT, want: realArray(2, 1, 1, 2)},
		{raw: `{"complex":[[1,2],[3,-1]]}`, typ: cplxVecT, want: complexArray(1, 2, complex(1, 2), complex(3, -1))},
		{raw: `{"complex":[]}`, typ: cplxVecT, want: complexArray(1, 0)},
		{raw: `{"rows":1,"cols":1,"data":[1],"complex":[[5,6]]}`, typ: cplxVecT, want: complexArray(1, 1, complex(5, 6))},
		{raw: `{"rows":2,"cols":2,"data":[1,2,3]}`, typ: realMatT, err: "mat2c: NewMatrix: 3 values for 2x2"},
		{raw: `{"weird": true}`, typ: realMatT, err: `unrecognized argument form {"weird": true}`},
		{raw: `{"rows":0,"cols":2}`, typ: realMatT, err: `unrecognized argument form {"rows":0,"cols":2}`},
		{raw: `{"rows":-1,"cols":2}`, typ: realMatT, err: `unrecognized argument form {"rows":-1,"cols":2}`},
		{raw: `{"rows":0,"cols":3,"data":[]}`, typ: realMatT, want: realArray(0, 3)},
		{raw: `{"cols":0,"data":[],"rows":2}`, typ: realMatT, want: realArray(2, 0)},
		{raw: `{"rows":0,"cols":0,"data":[]}`, typ: realMatT, want: realArray(0, 0)},
		{raw: `{"rows":0,"cols":2,"complex":[]}`, typ: cplxVecT, want: complexArray(0, 2)},
		{raw: `{"rows":0,"cols":2,"complex":[[1,2]]}`, typ: cplxVecT, err: `unrecognized argument form {"rows":0,"cols":2,"complex":[[1,2]]}`},
		{raw: `{"rows":-3,"cols":2,"complex":[[1,2]]}`, typ: cplxVecT, err: `unrecognized argument form {"rows":-3,"cols":2,"complex":[[1,2]]}`},
		{raw: `{"rows":5,"complex":[[1,2]]}`, typ: cplxVecT, err: `unrecognized argument form {"rows":5,"complex":[[1,2]]}`},
		{raw: `{"complex":[[1,2]],"cols":1}`, typ: cplxVecT, err: `unrecognized argument form {"complex":[[1,2]],"cols":1}`},
		{raw: `{"rows":0,"cols":2,"data":[1]}`, typ: realMatT, err: `unrecognized argument form {"rows":0,"cols":2,"data":[1]}`},
		{raw: `{"rows":0,"data":[]}`, typ: realMatT, err: `unrecognized argument form {"rows":0,"data":[]}`},
		{raw: `{"rows":-1,"cols":0,"data":[]}`, typ: realMatT, err: `unrecognized argument form {"rows":-1,"cols":0,"data":[]}`},
		{raw: `{"rows":1024,"cols":1024}`, typ: realMatT, want: realArray(1024, 1024, make([]float64, 1<<20)...)},
		{raw: `{"rows":1025,"cols":1024}`, typ: realMatT, err: "a 1025x1024 matrix without data exceeds 1048576 elements"},
		{raw: `{"rows":4096,"cols":4096}`, typ: realMatT, err: "a 4096x4096 matrix without data exceeds 1048576 elements"},
		{raw: `{"rows":3037000500,"cols":3037000500}`, typ: realMatT, err: "a 3037000500x3037000500 matrix without data exceeds 1048576 elements"},
		{raw: `{"rows":4294967296,"cols":4294967296}`, typ: realMatT, err: "a 4294967296x4294967296 matrix without data exceeds 1048576 elements"},
		{raw: `{"rows":3037000500,"cols":3037000500,"data":[]}`, typ: realMatT, err: "mat2c: NewMatrix: bad extent 3037000500x3037000500"},
		{raw: `{"rows":4294967296,"cols":4294967296,"complex":[]}`, typ: cplxVecT, err: "mat2c: NewComplexMatrix: bad extent 4294967296x4294967296"},
		{raw: `{"rows":2048,"cols":2048,"data":[1]}`, typ: realMatT, err: "mat2c: NewMatrix: 1 values for 2048x2048"},
		{raw: `{}`, typ: realMatT, err: `unrecognized argument form {}`},
		{raw: `"str"`, typ: realT, err: `cannot decode "str"`},
		{raw: `true`, typ: realT, err: `cannot decode true`},
		{raw: `[[1,2]]`, typ: realMatT, err: `cannot decode [[1,2]]`},
		{raw: `[1,"2"]`, typ: realVecT, err: `cannot decode [1,"2"]`},
		{raw: `{"rows":1.5,"cols":2}`, typ: realMatT, err: `cannot decode {"rows":1.5,"cols":2}`},
		{raw: `{"rows":1e1,"cols":2}`, typ: realMatT, err: `cannot decode {"rows":1e1,"cols":2}`},
		{raw: `{"rows":"2","cols":2}`, typ: realMatT, err: `cannot decode {"rows":"2","cols":2}`},
		{raw: `{"complex":[1,2]}`, typ: cplxVecT, err: `cannot decode {"complex":[1,2]}`},
		{raw: `1e400`, typ: realT, err: `cannot decode 1e400`},
		{raw: `01`, typ: realT, err: `cannot decode 01`},
		{raw: `.5`, typ: realT, err: `cannot decode .5`},
		{raw: `0x10`, typ: realT, err: `cannot decode 0x10`},
		{raw: `1_0`, typ: realT, err: `cannot decode 1_0`},
		{raw: `Inf`, typ: realT, err: `cannot decode Inf`},
		{raw: `1 2`, typ: realT, err: `cannot decode 1 2`},
		{raw: ``, typ: realT, err: `cannot decode `},

		// Deliberate differences from the reflective decoder this one
		// replaced; the comment gives what that decoder did.
		{raw: `null`, typ: realT, err: `cannot decode null`},                                                                             // read as 0
		{raw: `[1,null]`, typ: realVecT, err: `cannot decode [1,null]`},                                                                  // null read as 0
		{raw: `{"ROWS":1,"cols":1}`, typ: realMatT, err: `unrecognized argument form {"ROWS":1,"cols":1}`},                               // key case-folded
		{raw: `{"r\u006fws":1,"cols":1}`, typ: realMatT, err: `unrecognized argument form {"r\u006fws":1,"cols":1}`},                     // key unescaped
		{raw: `{"rows":1,"cols":1,"extra":[true]}`, typ: realMatT, err: `unrecognized argument form {"rows":1,"cols":1,"extra":[true]}`}, // key ignored
		{raw: `{"complex":[[1],[2,3,4]]}`, typ: cplxVecT, err: `cannot decode {"complex":[[1],[2,3,4]]}`},                                // 1+0i, 2+3i
		{raw: `{"complex":[[]]}`, typ: cplxVecT, err: `cannot decode {"complex":[[]]}`},                                                  // 0+0i
		{raw: `[1.5,-2]`, typ: complexT, want: complex(1.5, -2)},                                                                         // real 1x2 vector
		{raw: `{"rows":2,"cols":1,"complex":[[1,2],[3,4]]}`, typ: cplxVecT, want: complexArray(2, 1, complex(1, 2), complex(3, 4))},      // 1x2
		{raw: `{"rows":2,"cols":2,"complex":[[1,2]]}`, typ: cplxVecT, err: "mat2c: NewComplexMatrix: 1 values for 2x2"},                  // 1x1
		{raw: `{"rows":1,"cols":2,"data":[1,2],"complex":[[5,6]]}`, typ: cplxVecT, err: "mat2c: NewComplexMatrix: 1 values for 1x2"},     // 1x1
		{raw: `{"rows":1,"cols":2,"complex":[]}`, typ: cplxVecT, err: "mat2c: NewComplexMatrix: 0 values for 1x2"},                       // 1x0
	} {
		got, err := DecodeArg(json.RawMessage(tc.raw), tc.typ)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("DecodeArg(%s, %v) = %v, %v; want error %q", tc.raw, tc.typ, got, err, tc.err)
			}
		case err != nil:
			t.Errorf("DecodeArg(%s, %v): %v", tc.raw, tc.typ, err)
		case !sameValue(got, tc.want):
			t.Errorf("DecodeArg(%s, %v) = %#v, want %#v", tc.raw, tc.typ, got, tc.want)
		}
	}
}

// TestDecodeArgAllocationBounded: a rejected shape allocates nothing of
// the size it asks for. Each of these small objects asks for gigabytes
// or overflows an int, and must cost less than 64 KiB to reject.
func TestDecodeArgAllocationBounded(t *testing.T) {
	for _, raw := range []string{
		`{"rows":4096,"cols":4096}`,
		`{"rows":2048,"cols":2048,"data":[1]}`,
		`{"rows":2048,"cols":2048,"complex":[[1,2]]}`,
		`{"rows":3037000500,"cols":3037000500,"data":[]}`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeArg(json.RawMessage(raw), realMatT)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("DecodeArg(%s) accepted", raw)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("DecodeArg(%s) allocated %d bytes to reject it", raw, n)
		}
	}
}

// TestDecodeArgsPinned pins the argument-list errors and their order:
// malformed JSON first, then a list that is not an array, then arity,
// then the first argument that does not decode.
func TestDecodeArgsPinned(t *testing.T) {
	two := []mat2c.Type{realT, realMatT}
	for _, tc := range []struct {
		text  string
		types []mat2c.Type
		want  int // decoded values, when err is empty
		err   string
	}{
		{text: `[]`, types: nil, want: 0},
		{text: ` [ 1 , {"rows":1,"cols":1} ] `, types: two, want: 2},
		{text: `[1, 2]`, types: two[:1], err: "argument list has 2 values, entry takes 1"},
		{text: `[1]`, types: two, err: "argument list has 1 values, entry takes 2"},
		{text: `[1, "x", {"weird": 1}]`, types: two, err: "argument list has 3 values, entry takes 2"},
		{text: `not json`, types: two, err: "argument list: invalid character 'o' in literal null (expecting 'u')"},
		{text: `[1, ]`, types: two, err: "argument list: invalid character ']' looking for beginning of value"},
		{text: `[1, "x", {"weird": 1}`, types: two, err: "argument list: unexpected end of JSON input"},
		{text: `[1] x`, types: two, err: "argument list: invalid character 'x' after top-level value"},
		{text: `1]`, types: two[:1], err: "argument list: invalid character ']' after top-level value"},
		{text: `5`, types: two, err: "argument list: json: cannot unmarshal number into Go value of type []json.RawMessage"},
		{text: `{"a":1}`, types: two, err: "argument list: json: cannot unmarshal object into Go value of type []json.RawMessage"},
		{text: `["x", {"weird": 1}]`, types: two, err: `argument 1: cannot decode "x"`},
		{text: `[1, {"weird": 1}]`, types: two, err: `argument 2: unrecognized argument form {"weird": 1}`},
		{text: `[1, {"rows":2,"cols":2,"data":[1]}]`, types: two, err: "argument 2: mat2c: NewMatrix: 1 values for 2x2"},

		// Deliberate differences, with the replaced decoder's answer.
		{text: `null`, types: nil, err: "argument list: json: cannot unmarshal null into Go value of type []json.RawMessage"}, // no arguments
		{text: ` `, types: nil, want: 0},                                         // unexpected end of JSON input
		{text: ``, types: two, err: "argument list has 0 values, entry takes 2"}, // unexpected end of JSON input
	} {
		got, err := DecodeArgs(tc.text, tc.types)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("DecodeArgs(%s) = %v, %v; want error %q", tc.text, got, err, tc.err)
			}
		case err != nil:
			t.Errorf("DecodeArgs(%s): %v", tc.text, err)
		case len(got) != tc.want:
			t.Errorf("DecodeArgs(%s) = %d values, want %d", tc.text, len(got), tc.want)
		}
	}
}
