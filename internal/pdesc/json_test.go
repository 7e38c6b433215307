package pdesc

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"reflect"
	"testing"

	"mat2c/procs"
)

// hostileStrings need every escaping rule json.Marshal applies: quotes
// and backslashes, control bytes (short and \u forms), HTML's <, > and
// &, U+2028/2029, DEL, non-ASCII text and invalid UTF-8.
var hostileStrings = []string{
	`say "hi" \ bye`, "\x00\x01\x1f\b\f\n\r\t", "<script>a && b</script>",
	"line\u2028para\u2029", "\x7f", "naïve ünïcode ✓", "\xff\xfe\xc3", "\xe2\x80",
}

// checkAppendJSON fails unless p.AppendJSON equals json.Marshal(p),
// and appends after what dst already holds.
func checkAppendJSON(t *testing.T, p *Processor) {
	t.Helper()
	want, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got := p.AppendJSON([]byte("prefix"))
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant prefix%s", got, want)
	}
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	checkAppendJSON(t, nil)
	checkAppendJSON(t, &Processor{})
	// Empty but non-nil costs and instructions are omitted like nil ones.
	checkAppendJSON(t, &Processor{Name: "e", Costs: map[string]int{}, Instructions: []Instr{}})
	for _, name := range BuiltinNames() {
		checkAppendJSON(t, Builtin(name))
	}
	for _, s := range hostileStrings {
		checkAppendJSON(t, &Processor{Name: s, Description: s, Costs: map[string]int{s: -3, "load": 2},
			Instructions: []Instr{{Name: s, CName: s, Cycles: 1, Semantics: s, CostClass: s}}})
	}
}

// TestAppendJSONRendersEveryField sets every exported field of
// Processor and Instr and compares AppendJSON with json.Marshal, so a
// field added to either type that AppendJSON does not render fails
// here rather than silently dropping out of every cache key.
func TestAppendJSONRendersEveryField(t *testing.T) {
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			if !sf.IsExported() {
				continue
			}
			name := path + "." + sf.Name
			switch {
			case f.Kind() == reflect.String:
				f.SetString(name)
			case f.Kind() == reflect.Int:
				f.SetInt(int64(7 + i))
			case f.Type() == reflect.TypeOf(map[string]int(nil)):
				f.Set(reflect.ValueOf(map[string]int{name: 3, "a": 1}))
			case f.Type() == reflect.TypeOf([]Instr(nil)):
				in := reflect.New(f.Type().Elem()).Elem()
				fill(in, name)
				f.Set(reflect.Append(f, in, in))
			default:
				t.Fatalf("%s has type %s, which this guard cannot fill: teach AppendJSON and this test to render it", name, f.Type())
			}
		}
	}
	var p Processor
	fill(reflect.ValueOf(&p).Elem(), "Processor")
	checkAppendJSON(t, &p)
}

// FuzzProcessorJSON: AppendJSON equals json.Marshal for any processor
// JSON decodes to, extended with a fuzzed string (which, unlike decoded
// text, may be invalid UTF-8) as a description suffix, a cost key and
// every field of one more instruction.
func FuzzProcessorJSON(f *testing.F) {
	for _, name := range BuiltinNames() {
		data, err := json.Marshal(Builtin(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, "")
	}
	files, err := fs.Glob(procs.FS, "*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := procs.FS.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, "")
	}
	f.Add([]byte(`{"name":"e","costs":{},"instructions":[]}`), "")
	for _, s := range hostileStrings {
		f.Add([]byte(`{"name":"h","costs":{"load":1}}`), s)
	}
	f.Fuzz(func(t *testing.T, data []byte, s string) {
		var p Processor
		if json.Unmarshal(data, &p) != nil {
			return
		}
		if s != "" {
			p.Description += s
			if p.Costs == nil {
				p.Costs = map[string]int{}
			}
			p.Costs[s] = len(s)
			p.Instructions = append(p.Instructions, Instr{Name: s, CName: s, Cycles: len(s), Semantics: s, CostClass: s})
		}
		checkAppendJSON(t, &p)
	})
}
