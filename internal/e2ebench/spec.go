package e2ebench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strings"

	mat2c "mat2c"
	"mat2c/internal/bench"
	"mat2c/internal/dse"
	"mat2c/internal/sema"
	"mat2c/internal/service"
)

// costClasses are the cycle-cost classes the seeded override draws
// from: the memory, vector, multiply and branch costs every kernel pays.
var costClasses = []string{"load", "store", "vload", "vstore", "vop", "fmul", "branch", "cload"}

// sweepScale is the kernels' problem-size multiplier in every sweep
// (asipdse's default); quickScale replaces it in a quick run.
const (
	sweepScale = 0.25
	quickScale = 0.05
)

// newRand returns a deterministic generator for one named stream of a
// seed, so adding a stream never shifts the draws of another.
func newRand(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// SweepSpec returns the asipdse -sweep specification for seed: the
// default axes over dspasip crossed with two cost sets, the base table
// ({}) and one seeded override of three cost classes, each drawn
// different from its base cost and at least 1 — 272 variants. A quick
// spec caps the enumeration at 24 variants.
func SweepSpec(seed uint64, quick bool) ([]byte, error) {
	base, err := mat2c.LoadProcessor("dspasip")
	if err != nil {
		return nil, err
	}
	rng := newRand(seed, "sweep")
	over := map[string]int{}
	for _, i := range rng.Perm(len(costClasses))[:3] {
		class := costClasses[i]
		b := base.Cost(class)
		v := b
		for v == b {
			v = 1 + rng.IntN(b+3)
		}
		over[class] = v
	}
	spec := dse.Sweep{Costs: []dse.CostOverride{{}, {Name: "seeded", Costs: over}}}
	if quick {
		spec.MaxVariants = 24
	}
	return json.MarshalIndent(spec, "", "  ")
}

// entry is one point of the /run request catalog: a kernel on a
// built-in target at one problem size. want and the expected counts are
// filled in once, outside any timed phase.
type entry struct {
	kernel *bench.Kernel
	target string
	scale  float64
	n      int
	source string
	params string
	args   json.RawMessage
	body   []byte // the cache-hit request: the kernel's source verbatim

	want     []interface{} // the kernel's Go reference outputs
	cycles   int64         // simulated cycles, from the warm-up
	codeSize int           // static VM instructions, from the warm-up
}

func (e *entry) name() string { return fmt.Sprintf("%s/%s/%g", e.kernel.Name, e.target, e.scale) }

// runBody is the /run request the load generator sends (the fields of
// service.RunRequest it uses). Requests skip C generation: the loop
// measures compile-and-simulate, what a /run caller waits for.
type runBody struct {
	Source string          `json:"source"`
	Entry  string          `json:"entry"`
	Params string          `json:"params"`
	Target string          `json:"target"`
	SkipC  bool            `json:"skip_c"`
	Args   json.RawMessage `json:"args"`
}

func (e *entry) request(source string) []byte {
	b, err := json.Marshal(runBody{Source: source, Entry: e.kernel.Entry, Params: e.params, Target: e.target, SkipC: true, Args: e.args})
	if err != nil {
		panic(err) // strings and pre-validated JSON always marshal
	}
	return b
}

// runScales are the problem-size multipliers the request mix draws.
var runScales = []float64{0.125, 0.25, 0.5}

// catalog builds every kernel × built-in target × scale entry with its
// request body. Inputs come from the kernels' own fixed generators, so
// the catalog is the same for every seed; the seed picks from it.
func catalog(quick bool) ([]*entry, error) {
	scales := runScales
	if quick {
		scales = []float64{quickScale}
	}
	var out []*entry
	for _, k := range bench.Kernels() {
		params, err := typeList(k.Params)
		if err != nil {
			return nil, err
		}
		for _, target := range mat2c.Targets() {
			for _, s := range scales {
				n := bench.SizeFor(k, s)
				enc := make([]interface{}, 0, len(k.Params))
				for _, a := range k.Inputs(n) {
					enc = append(enc, service.EncodeValue(a))
				}
				args, err := json.Marshal(enc)
				if err != nil {
					return nil, fmt.Errorf("encode %s inputs: %w", k.Name, err)
				}
				e := &entry{kernel: k, target: target, scale: s, n: n, source: k.Source, params: params, args: args}
				e.body = e.request(k.Source)
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// typeList renders parameter types in the command-line syntax /run
// accepts ("real(1,:), complex, int").
func typeList(ts []sema.Type) (string, error) {
	parts := make([]string, len(ts))
	for i, t := range ts {
		var class string
		switch t.Class {
		case sema.Bool:
			class = "logical"
		case sema.Int:
			class = "int"
		case sema.Real:
			class = "real"
		case sema.Complex:
			class = "complex"
		default:
			return "", fmt.Errorf("parameter %d: unsupported class %v", i+1, t.Class)
		}
		dim := func(d int) string {
			if d == sema.DimUnknown {
				return ":"
			}
			return fmt.Sprint(d)
		}
		if t.Shape.Rows == 1 && t.Shape.Cols == 1 {
			parts[i] = class
		} else {
			parts[i] = fmt.Sprintf("%s(%s,%s)", class, dim(t.Shape.Rows), dim(t.Shape.Cols))
		}
	}
	return strings.Join(parts, ", "), nil
}

// uniqueShare is the fraction of requests whose source carries a
// one-off comment: each forces a compile and a disk write-through,
// while the rest are cache-hit reads.
const uniqueShare = 0.10

// request is one drawn /run request.
type request struct {
	entry  *entry
	source string
	body   []byte
}

// drawRequests draws n requests for one window of the named phase.
// Entries are dealt from shuffled decks of the whole catalog, so every
// window carries the same mix of cheap and expensive requests and only
// their order depends on the seed. Each window has its own stream, so
// windows are regenerated rather than replayed, and the same (seed,
// phase, window) always gives the same bytes.
func drawRequests(cat []*entry, seed uint64, phase string, window, n int) []request {
	rng := newRand(seed, fmt.Sprintf("%s/%d", phase, window))
	out := make([]request, n)
	var deck []int
	for i := range out {
		if i%len(cat) == 0 {
			deck = rng.Perm(len(cat))
		}
		e := cat[deck[i%len(cat)]]
		r := request{entry: e, source: e.source, body: e.body}
		if rng.Float64() < uniqueShare {
			r.source = fmt.Sprintf("%s\n%% e2ebench %d %s %d %d\n", e.source, seed, phase, window, i)
			r.body = e.request(r.source)
		}
		out[i] = r
	}
	return out
}
