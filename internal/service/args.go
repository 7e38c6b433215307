package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	mat2c "mat2c"
)

// DecodeArgs converts a JSON argument list into simulator run
// arguments, guided by the declared parameter types. The format is
// shared with cmd/asipsim:
//
//	2.5                                  scalar (real or int per the type)
//	[1, 2, 3]                            real row vector
//	[1.5, -2]                            1.5-2i, where the type is a complex scalar
//	{"rows":2,"cols":2,"data":[1,2,3,4]} real matrix (column-major)
//	{"complex":[[1,2],[3,-1]]}           complex row vector (re,im pairs)
//	{"rows":2,"cols":1,"complex":[...]}  complex matrix (column-major)
//
// Numbers follow the JSON grammar. An object takes only the keys
// above, each spelled exactly; a real matrix without "data" is zeros,
// at most maxZeroElements of them. An extent of zero needs both
// extents and an explicit empty list: {"rows":0,"cols":3,"data":[]}.
// A blank text is the empty list.
func DecodeArgs(text string, types []mat2c.Type) ([]interface{}, error) {
	return decodeArgs([]byte(text), types)
}

// decodeArgs is DecodeArgs in one pass over the list's bytes. Any
// failure is re-diagnosed by listError, so errors come in the order
// the list is checked: JSON syntax, then the list itself, then its
// length, then the first argument that does not decode.
func decodeArgs(data []byte, types []mat2c.Type) ([]interface{}, error) {
	out := make([]interface{}, 0, len(types))
	d := decoder{data: data}
	if d.space(); d.pos == len(data) {
		if len(types) > 0 {
			return nil, arityError(0, len(types))
		}
		return out, nil
	}
	open := d.byte('[')
	closed := open && d.byte(']')
	for open && !closed && len(out) < len(types) {
		v, err := d.value(types[len(out)])
		if err != nil {
			break
		}
		out = append(out, v)
		if closed = d.byte(']'); !closed && !d.byte(',') {
			break
		}
	}
	if d.space(); closed && d.pos == len(data) && len(out) == len(types) {
		return out, nil
	}
	return nil, listError(data, types)
}

// listError explains why decodeArgs rejected data.
func listError(data []byte, types []mat2c.Type) error {
	if err := json.Compact(new(bytes.Buffer), data); err != nil {
		return fmt.Errorf("argument list: %w", err)
	}
	i := skipSpace(data, 0)
	if data[i] != '[' {
		return fmt.Errorf("argument list: json: cannot unmarshal %s into Go value of type []json.RawMessage", kindOf(data[i]))
	}
	var elems [][]byte
	if i = skipSpace(data, i+1); data[i] != ']' {
		for {
			end := valueEnd(data, i)
			elems = append(elems, data[i:end])
			if i = skipSpace(data, end); data[i] == ']' {
				break
			}
			i = skipSpace(data, i+1) // past ','
		}
	}
	if len(elems) != len(types) {
		return arityError(len(elems), len(types))
	}
	for i, raw := range elems {
		if _, err := DecodeArg(raw, types[i]); err != nil {
			return fmt.Errorf("argument %d: %w", i+1, err)
		}
	}
	// Unreached while decodeArgs and DecodeArg agree; still an error, so
	// a disagreement cannot pass a nil error with nil arguments.
	return errors.New("argument list: cannot decode")
}

func arityError(n, want int) error {
	return fmt.Errorf("argument list has %d values, entry takes %d", n, want)
}

// kindOf names the JSON value starting with c as encoding/json does.
func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// valueEnd returns the end of the JSON value starting at data[i];
// data must be valid JSON.
func valueEnd(data []byte, i int) int {
	depth := 0
	for ; i < len(data); i++ {
		switch c := data[i]; c {
		case '"':
			for i++; data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return i // the end of the enclosing array
			}
			depth--
		default:
			if depth == 0 && (c == ',' || isSpace(c)) {
				return i
			}
			continue // inside a literal, or a nested value's punctuation
		}
		if depth == 0 {
			return i + 1
		}
	}
	return i
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// DecodeArg converts one JSON argument into a run argument of the
// declared type (see DecodeArgs for the forms).
func DecodeArg(raw json.RawMessage, t mat2c.Type) (interface{}, error) {
	d := decoder{data: raw}
	v, err := d.value(t)
	if d.space(); err == nil && d.pos == len(raw) {
		return v, nil
	}
	switch {
	case err == nil || errors.Is(err, errNotArg) || !json.Valid(raw):
		return nil, fmt.Errorf("cannot decode %s", raw)
	case errors.Is(err, errForm):
		return nil, fmt.Errorf("unrecognized argument form %s", raw)
	}
	return nil, err
}

var (
	// errNotArg marks bytes that are not one of the argument forms.
	errNotArg = errors.New("not an argument")
	// errForm marks an object that is none of the object forms.
	errForm = errors.New("unrecognized object form")
)

// decoder reads argument values from data, starting at pos.
type decoder struct {
	data []byte
	pos  int
	// floats and pairs collect an array's elements before the array is
	// built at its exact size; they are reused across one list.
	floats []float64
	pairs  []complex128
}

func (d *decoder) space() { d.pos = skipSpace(d.data, d.pos) }

// byte consumes c, after any white space, if it comes next.
func (d *decoder) byte(c byte) bool {
	if d.space(); d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// value reads one argument: a number, a real row vector (a complex
// scalar when t is one and the vector has two elements), or an
// object.
func (d *decoder) value(t mat2c.Type) (interface{}, error) {
	if d.space(); d.pos == len(d.data) {
		return nil, errNotArg
	}
	switch d.data[d.pos] {
	case '[':
		vals, err := d.numbers(d.floats[:0])
		d.floats = vals
		if err != nil {
			return nil, err
		}
		if t.Class == mat2c.Complex && t.IsScalar() && len(vals) == 2 {
			return complex(vals[0], vals[1]), nil
		}
		return mat2c.NewVector(vals...), nil
	case '{':
		return d.object()
	}
	num, err := d.number()
	if err != nil {
		return nil, err
	}
	switch t.Class {
	case mat2c.Int:
		return int64(num), nil
	case mat2c.Complex:
		return complex(num, 0), nil
	}
	return num, nil
}

// numbers appends the elements of a JSON array of numbers to vals.
func (d *decoder) numbers(vals []float64) ([]float64, error) {
	if !d.byte('[') {
		return vals, errNotArg
	}
	if d.byte(']') {
		return vals, nil
	}
	for {
		f, err := d.number()
		if err != nil {
			return vals, err
		}
		vals = append(vals, f)
		if d.byte(']') {
			return vals, nil
		}
		if !d.byte(',') {
			return vals, errNotArg
		}
	}
}

// maxZeroElements bounds a real matrix given without "data": the
// elements of a maxRequestBytes (8 MiB) body read as float64s. Without
// it a 25-byte object could ask for gigabytes of zeros.
const maxZeroElements = 1 << 20

// object reads {"rows", "cols", "data"} or {"complex"[, "rows",
// "cols"]}; a later duplicate key replaces an earlier one.
func (d *decoder) object() (interface{}, error) {
	d.pos++ // '{'
	var rows, cols int
	var data []float64
	var cplx []complex128
	hasRows, hasCols, hasData, hasComplex := false, false, false, false
	for first := true; !d.byte('}'); first = false {
		if !first && !d.byte(',') {
			return nil, errNotArg
		}
		key, err := d.key()
		if err != nil {
			return nil, err
		}
		if !d.byte(':') {
			return nil, errNotArg
		}
		switch key {
		case "rows":
			rows, err = d.int()
			hasRows = true
		case "cols":
			cols, err = d.int()
			hasCols = true
		case "data":
			data, err = d.numbers(d.floats[:0])
			d.floats, hasData = data, true
		case "complex":
			cplx, err = d.complexes(d.pairs[:0])
			d.pairs, hasComplex = cplx, true
		}
		if err != nil {
			return nil, err
		}
	}
	// A present but empty list is a count to check, not the zeros of
	// an absent one; with both extents given, it is also what makes an
	// extent of zero an empty array rather than no form at all.
	empty := hasComplex && len(cplx) == 0 || !hasComplex && hasData && len(data) == 0
	shaped := rows > 0 && cols > 0 || empty && hasRows && hasCols && rows >= 0 && cols >= 0
	switch {
	case hasComplex && shaped:
		if cplx == nil {
			cplx = []complex128{}
		}
		return mat2c.NewComplexMatrix(rows, cols, cplx)
	case hasComplex && !hasRows && !hasCols:
		return mat2c.NewComplexVector(cplx...), nil
	case shaped && hasData:
		if data == nil {
			data = []float64{}
		}
		return mat2c.NewMatrix(rows, cols, data)
	case shaped:
		if rows > maxZeroElements/cols {
			return nil, fmt.Errorf("a %dx%d matrix without data exceeds %d elements", rows, cols, maxZeroElements)
		}
		return mat2c.NewMatrix(rows, cols, nil)
	}
	return nil, errForm
}

// complexes appends the [re, im] pairs of a JSON array to vals.
func (d *decoder) complexes(vals []complex128) ([]complex128, error) {
	if !d.byte('[') {
		return vals, errNotArg
	}
	if d.byte(']') {
		return vals, nil
	}
	for {
		if !d.byte('[') {
			return vals, errNotArg
		}
		re, err := d.number()
		if err != nil || !d.byte(',') {
			return vals, errNotArg
		}
		im, err := d.number()
		if err != nil || !d.byte(']') {
			return vals, errNotArg
		}
		vals = append(vals, complex(re, im))
		if d.byte(']') {
			return vals, nil
		}
		if !d.byte(',') {
			return vals, errNotArg
		}
	}
}

// objectKeys are the keys an argument object may hold.
var objectKeys = [...]string{"rows", "cols", "data", "complex"}

// key reads an object key. Only the four unescaped keys are known, so
// a key holding an escape is unknown without decoding it.
func (d *decoder) key() (string, error) {
	if !d.byte('"') {
		return "", errNotArg
	}
	start := d.pos
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			for _, k := range objectKeys {
				if string(d.data[start:d.pos-1]) == k {
					return k, nil
				}
			}
			return "", errForm
		case c == '\\':
			return "", errForm
		case c < 0x20:
			return "", errNotArg
		}
	}
	return "", errNotArg
}

// int reads a JSON number without fraction or exponent that fits an
// int.
func (d *decoder) int() (int, error) {
	tok, integer := d.token()
	if tok == nil || !integer {
		return 0, errNotArg
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		return 0, errNotArg
	}
	return n, nil
}

// number reads a JSON number that fits a float64.
func (d *decoder) number() (float64, error) {
	tok, _ := d.token()
	if tok == nil {
		return 0, errNotArg
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, errNotArg
	}
	return f, nil
}

// token skips white space, then consumes the longest prefix that the
// JSON number grammar accepts, and reports whether it has neither
// fraction nor exponent; it returns nil, consuming nothing, when no
// number starts there. Checking the grammar first keeps out what
// strconv.ParseFloat alone would accept: "0x1p-2", "Inf", "1_0", ".5",
// "+1", "01".
func (d *decoder) token() (tok []byte, integer bool) {
	d.space()
	b, i := d.data, d.pos
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return nil, false
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
		integer = false
	}
	tok, d.pos = b[d.pos:i], i
	return tok, integer
}

// EncodeValue converts a simulator result into its JSON form, a
// json.RawMessage written by appendValue. A value appendValue cannot
// encode (NaN, an infinity, a type no result has) comes back as is, so
// json.Marshal reports the error.
func EncodeValue(v interface{}) interface{} {
	b, err := appendValue(nil, v)
	if err != nil {
		return v
	}
	return json.RawMessage(b)
}

// appendValue appends v's JSON form, symmetric with DecodeArg and
// byte-identical to what encoding/json made of the map and pair forms
// this writer replaced: scalars as numbers (complex scalars as
// [re, im]); real arrays as {"cols", "data", "rows"}; complex arrays as
// {"cols", "complex": [[re, im], ...], "rows"}.
func appendValue(dst []byte, v interface{}) ([]byte, error) {
	switch v := v.(type) {
	case float64:
		return appendFloat(dst, v)
	case int64:
		return strconv.AppendInt(dst, v, 10), nil
	case bool:
		return strconv.AppendBool(dst, v), nil
	case complex128:
		return appendComplex(dst, v)
	case *mat2c.Array:
		var err error
		dst = strconv.AppendInt(append(dst, `{"cols":`...), int64(v.Cols), 10)
		switch {
		case v.C != nil:
			dst = append(dst, `,"complex":[`...)
			for i, c := range v.C {
				if i > 0 {
					dst = append(dst, ',')
				}
				if dst, err = appendComplex(dst, c); err != nil {
					return nil, err
				}
			}
			dst = append(dst, ']')
		case v.F == nil:
			dst = append(dst, `,"data":null`...)
		default:
			dst = append(dst, `,"data":[`...)
			for i, f := range v.F {
				if i > 0 {
					dst = append(dst, ',')
				}
				if dst, err = appendFloat(dst, f); err != nil {
					return nil, err
				}
			}
			dst = append(dst, ']')
		}
		return append(strconv.AppendInt(append(dst, `,"rows":`...), int64(v.Rows), 10), '}'), nil
	}
	return nil, fmt.Errorf("json: unsupported type: %T", v)
}

func appendComplex(dst []byte, c complex128) ([]byte, error) {
	dst, err := appendFloat(append(dst, '['), real(c))
	if err != nil {
		return nil, err
	}
	dst, err = appendFloat(append(dst, ','), imag(c))
	if err != nil {
		return nil, err
	}
	return append(dst, ']'), nil
}

// appendFloat formats f as encoding/json does: like ES6, exponent form
// below 1e-6 and from 1e21 on, with the exponent unpadded.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, nil
}
