// Dataflow patterns: small parameterized expression trees used to give
// mined custom instructions (internal/isx) executable semantics. A
// pattern is written in a compact text form, e.g.
//
//	float:add(p0,mul(p1,p2))        — a fused multiply-add
//	complex:mul(p0,conj(p1))        — a conjugate multiply
//
// and travels with the instruction (pdesc.Instr.Semantics → vm.Instr.Sem)
// so every consumer — the reference evaluator here, both VM engines, and
// the generated C fallback — derives behaviour from the same definition.
//
// The op vocabulary is deliberately restricted to ops whose lane
// semantics are identical across the evaluator and the VM (no base-kind
// changes, no faulting ops): float add/sub/mul/min/max/neg/abs and
// complex add/sub/mul/neg/conj. All interior nodes of a pattern share
// one base kind; parameters are numbered p0..pN-1 and may repeat.
package ir

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MaxPatternArity bounds the distinct parameters of one pattern: wider
// instructions would exceed any plausible register-port budget.
const MaxPatternArity = 8

// PatNode is one node of a pattern tree: a parameter leaf (Param >= 0)
// or an operation over one (Y == nil) or two children.
type PatNode struct {
	Param int // parameter index, or -1 for an op node
	Op    Op
	X, Y  *PatNode
}

// Pattern is a parsed, validated pattern.
type Pattern struct {
	Base  BaseKind // Float or Complex
	Root  *PatNode
	arity int
	nodes int // op nodes (not counting parameter leaves)
}

// Allowed op vocabulary per base kind.
var (
	patFloatBin   = map[Op]bool{OpAdd: true, OpSub: true, OpMul: true, OpMin: true, OpMax: true}
	patFloatUn    = map[Op]bool{OpNeg: true, OpAbs: true}
	patComplexBin = map[Op]bool{OpAdd: true, OpSub: true, OpMul: true}
	patComplexUn  = map[Op]bool{OpNeg: true, OpConj: true}
)

// PatternBinOp reports whether op is usable as a binary pattern node
// over the given base.
func PatternBinOp(base BaseKind, op Op) bool {
	if base == Complex {
		return patComplexBin[op]
	}
	return base == Float && patFloatBin[op]
}

// PatternUnOp reports whether op is usable as a unary pattern node over
// the given base. OpAbs is excluded for complex (it changes the base
// kind to float, breaking the single-base invariant).
func PatternUnOp(base BaseKind, op Op) bool {
	if base == Complex {
		return patComplexUn[op]
	}
	return base == Float && patFloatUn[op]
}

// Param returns a parameter leaf node.
func Param(i int) *PatNode { return &PatNode{Param: i} }

// NewPattern validates a hand-built tree into a Pattern. Every op must
// be in the base's vocabulary, and parameter indices must be contiguous
// from 0 (an instruction's operand list has no holes).
func NewPattern(base BaseKind, root *PatNode) (*Pattern, error) {
	if base != Float && base != Complex {
		return nil, fmt.Errorf("pattern base must be float or complex, got %s", base)
	}
	if root == nil {
		return nil, fmt.Errorf("pattern has no body")
	}
	p := &Pattern{Base: base, Root: root}
	seen := map[int]bool{}
	maxIdx := -1
	var walk func(n *PatNode) error
	walk = func(n *PatNode) error {
		if n.Param >= 0 {
			if n.Param >= MaxPatternArity {
				return fmt.Errorf("pattern parameter p%d exceeds the arity limit %d", n.Param, MaxPatternArity)
			}
			seen[n.Param] = true
			if n.Param > maxIdx {
				maxIdx = n.Param
			}
			return nil
		}
		p.nodes++
		if n.X == nil {
			return fmt.Errorf("pattern op %s has no operand", n.Op)
		}
		if n.Y == nil {
			if !PatternUnOp(base, n.Op) {
				return fmt.Errorf("op %s is not a valid unary %s pattern op", n.Op, base)
			}
			return walk(n.X)
		}
		if !PatternBinOp(base, n.Op) {
			return fmt.Errorf("op %s is not a valid binary %s pattern op", n.Op, base)
		}
		if err := walk(n.X); err != nil {
			return err
		}
		return walk(n.Y)
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	if p.nodes == 0 {
		return nil, fmt.Errorf("pattern is a bare parameter, not an operation")
	}
	for i := 0; i <= maxIdx; i++ {
		if !seen[i] {
			return nil, fmt.Errorf("pattern parameter p%d is skipped (parameters must be contiguous from p0)", i)
		}
	}
	p.arity = maxIdx + 1
	return p, nil
}

// Arity returns the number of distinct parameters.
func (p *Pattern) Arity() int { return p.arity }

// OpNodes returns the number of operation nodes.
func (p *Pattern) OpNodes() int { return p.nodes }

// String renders the pattern in its parseable text form, preserving the
// tree exactly as built or parsed.
func (p *Pattern) String() string {
	var b strings.Builder
	b.WriteString(p.Base.String())
	b.WriteByte(':')
	renderPatNode(&b, p.Root)
	return b.String()
}

func renderPatNode(b *strings.Builder, n *PatNode) {
	if n.Param >= 0 {
		b.WriteByte('p')
		b.WriteString(strconv.Itoa(n.Param))
		return
	}
	b.WriteString(n.Op.String())
	b.WriteByte('(')
	renderPatNode(b, n.X)
	if n.Y != nil {
		b.WriteByte(',')
		renderPatNode(b, n.Y)
	}
	b.WriteByte(')')
}

// Canonical returns a dedup key that identifies the pattern up to
// commutative operand order and parameter renaming: commutative
// children are ordered by an identity-blind shape key, then parameters
// are renumbered in first-occurrence order. Patterns whose Canonical
// strings match compute the same function under some argument
// permutation (the converse can miss exotic ties; the miner only uses
// this to avoid re-scoring obvious duplicates).
func (p *Pattern) Canonical() string {
	root := canonPatNode(p.Root)
	renum := map[int]int{}
	var b strings.Builder
	b.WriteString(p.Base.String())
	b.WriteByte(':')
	var render func(n *PatNode)
	render = func(n *PatNode) {
		if n.Param >= 0 {
			id, ok := renum[n.Param]
			if !ok {
				id = len(renum)
				renum[n.Param] = id
			}
			b.WriteByte('p')
			b.WriteString(strconv.Itoa(id))
			return
		}
		b.WriteString(n.Op.String())
		b.WriteByte('(')
		render(n.X)
		if n.Y != nil {
			b.WriteByte(',')
			render(n.Y)
		}
		b.WriteByte(')')
	}
	render(root)
	return b.String()
}

func canonPatNode(n *PatNode) *PatNode {
	if n.Param >= 0 {
		return n
	}
	x := canonPatNode(n.X)
	if n.Y == nil {
		return &PatNode{Param: -1, Op: n.Op, X: x}
	}
	y := canonPatNode(n.Y)
	if n.Op.Commutative() {
		kx, ky := patShapeKey(x), patShapeKey(y)
		if ky < kx {
			x, y = y, x
		}
	}
	return &PatNode{Param: -1, Op: n.Op, X: x, Y: y}
}

// patShapeKey renders a subtree with all parameters blanked to "p", so
// commutative ordering does not depend on parameter numbering.
func patShapeKey(n *PatNode) string {
	var b strings.Builder
	var walk func(n *PatNode)
	walk = func(n *PatNode) {
		if n.Param >= 0 {
			b.WriteByte('p')
			return
		}
		b.WriteString(n.Op.String())
		b.WriteByte('(')
		kids := []*PatNode{n.X}
		if n.Y != nil {
			kids = append(kids, n.Y)
		}
		if n.Y != nil && n.Op.Commutative() {
			ka, kb := patShapeKey(n.X), patShapeKey(n.Y)
			if kb < ka {
				kids[0], kids[1] = kids[1], kids[0]
			}
		}
		for i, k := range kids {
			if i > 0 {
				b.WriteByte(',')
			}
			walk(k)
		}
		b.WriteByte(')')
	}
	walk(n)
	return b.String()
}

// EvalLane computes one lane of the pattern. Argument and result values
// are carried as complex128 regardless of base: float patterns operate
// on the real parts and return a real-only complex, exactly matching
// the VM's lane representation.
func (p *Pattern) EvalLane(args []complex128) complex128 {
	return evalPatNode(p.Base, p.Root, args)
}

func evalPatNode(base BaseKind, n *PatNode, args []complex128) complex128 {
	if n.Param >= 0 {
		v := args[n.Param]
		if base == Float {
			return complex(real(v), 0)
		}
		return v
	}
	x := evalPatNode(base, n.X, args)
	if n.Y == nil {
		if base == Complex {
			switch n.Op {
			case OpNeg:
				return -x
			case OpConj:
				return cmplx.Conj(x)
			}
			return cmplx.NaN()
		}
		switch n.Op {
		case OpNeg:
			return complex(-real(x), 0)
		case OpAbs:
			return complex(math.Abs(real(x)), 0)
		}
		return complex(math.NaN(), 0)
	}
	y := evalPatNode(base, n.Y, args)
	if base == Complex {
		switch n.Op {
		case OpAdd:
			return x + y
		case OpSub:
			return x - y
		case OpMul:
			return x * y
		}
		return cmplx.NaN()
	}
	a, bb := real(x), real(y)
	var r float64
	switch n.Op {
	case OpAdd:
		r = a + bb
	case OpSub:
		r = a - bb
	case OpMul:
		r = a * bb
	case OpMin:
		r = math.Min(a, bb)
	case OpMax:
		r = math.Max(a, bb)
	default:
		r = math.NaN()
	}
	return complex(r, 0)
}

// ParsePattern parses the text form "base:expr" where base is "float"
// or "complex" and expr is a parameter pN or op(arg[,arg]) over the
// base's op vocabulary. Whitespace is not significant.
func ParsePattern(s string) (*Pattern, error) {
	text := strings.TrimSpace(s)
	colon := strings.IndexByte(text, ':')
	if colon < 0 {
		return nil, fmt.Errorf("pattern %q: missing base prefix (want float: or complex:)", s)
	}
	var base BaseKind
	switch strings.TrimSpace(text[:colon]) {
	case "float":
		base = Float
	case "complex":
		base = Complex
	default:
		return nil, fmt.Errorf("pattern %q: base must be float or complex", s)
	}
	pp := &patParser{s: text[colon+1:]}
	root, err := pp.expr()
	if err != nil {
		return nil, fmt.Errorf("pattern %q: %v", s, err)
	}
	pp.skipSpace()
	if pp.i != len(pp.s) {
		return nil, fmt.Errorf("pattern %q: trailing input at offset %d", s, pp.i)
	}
	p, err := NewPattern(base, root)
	if err != nil {
		return nil, fmt.Errorf("pattern %q: %v", s, err)
	}
	return p, nil
}

type patParser struct {
	s string
	i int
}

func (p *patParser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *patParser) ident() string {
	start := p.i
	for p.i < len(p.s) {
		c := p.s[p.i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			p.i++
			continue
		}
		break
	}
	return p.s[start:p.i]
}

func (p *patParser) expr() (*PatNode, error) {
	p.skipSpace()
	id := p.ident()
	if id == "" {
		return nil, fmt.Errorf("expected parameter or op at offset %d", p.i)
	}
	if id[0] == 'p' && len(id) > 1 {
		if n, err := strconv.Atoi(id[1:]); err == nil {
			return Param(n), nil
		}
	}
	op, ok := opByName(id)
	if !ok {
		return nil, fmt.Errorf("unknown op %q", id)
	}
	p.skipSpace()
	if p.i >= len(p.s) || p.s[p.i] != '(' {
		return nil, fmt.Errorf("op %s: expected ( at offset %d", id, p.i)
	}
	p.i++
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	n := &PatNode{Param: -1, Op: op, X: x}
	p.skipSpace()
	if p.i < len(p.s) && p.s[p.i] == ',' {
		p.i++
		y, err := p.expr()
		if err != nil {
			return nil, err
		}
		n.Y = y
		p.skipSpace()
	}
	if p.i >= len(p.s) || p.s[p.i] != ')' {
		return nil, fmt.Errorf("op %s: expected ) at offset %d", id, p.i)
	}
	p.i++
	return n, nil
}

var opNameIndex = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

func opByName(name string) (Op, bool) {
	op, ok := opNameIndex[name]
	return op, ok
}

// patternCache memoizes parsed patterns by text: the VM and evaluator
// hit the same few semantics strings for every executed instruction.
var patternCache sync.Map // string -> *Pattern (or error, stored as patternCacheErr)

type patternCacheErr struct{ err error }

// CachedPattern parses sem through a process-wide cache. Patterns are
// immutable after construction, so sharing is safe.
func CachedPattern(sem string) (*Pattern, error) {
	if v, ok := patternCache.Load(sem); ok {
		if e, bad := v.(patternCacheErr); bad {
			return nil, e.err
		}
		return v.(*Pattern), nil
	}
	p, err := ParsePattern(sem)
	if err != nil {
		patternCache.Store(sem, patternCacheErr{err})
		return nil, err
	}
	patternCache.Store(sem, p)
	return p, nil
}

// SortPatternsByNodes orders patterns largest-first (more fused work
// first), breaking ties by canonical text for determinism. Used by
// instruction selection's maximal-munch over mined patterns.
func SortPatternsByNodes(ps []*Pattern) {
	sort.SliceStable(ps, func(i, j int) bool {
		if ps[i].OpNodes() != ps[j].OpNodes() {
			return ps[i].OpNodes() > ps[j].OpNodes()
		}
		return ps[i].Canonical() < ps[j].Canonical()
	})
}

// evalPatternIntrinsic evaluates a semantics-carrying intrinsic in the
// reference evaluator: each lane gathers its arguments (scalars
// broadcast) and applies the pattern.
func evalPatternIntrinsic(name, sem string, args []val, k Kind) (val, error) {
	p, err := CachedPattern(sem)
	if err != nil {
		return val{}, rtErrf("intrinsic %s: bad semantics: %v", name, err)
	}
	if len(args) != p.Arity() {
		return val{}, rtErrf("intrinsic %s expects %d args, got %d", name, p.Arity(), len(args))
	}
	out := makeVal(k)
	lanes := make([]complex128, p.Arity())
	for j := 0; j < k.Lanes; j++ {
		for i, a := range args {
			ji := j
			if a.k.Lanes == 1 {
				ji = 0
			}
			_, _, c := a.lane(ji)
			lanes[i] = c
		}
		r := p.EvalLane(lanes)
		if p.Base == Complex {
			out.setLane(j, 0, real(r), r)
		} else {
			f := real(r)
			out.setLane(j, int64(f), f, complex(f, 0))
		}
	}
	return out, nil
}
