// Package sema implements semantic analysis for the MATLAB subset:
// symbol resolution (distinguishing array indexing from function calls),
// a builtin-function catalog, and iterative class/shape inference.
//
// MATLAB is dynamically typed; to generate efficient C the compiler
// infers, for every expression, a class (logical ⊑ integer ⊑ real ⊑
// complex) and a shape (rows × cols, where a dimension may be unknown).
// Inference runs to a fixpoint over loops so types only widen, mirroring
// the static specialization step every MATLAB-to-C flow performs.
package sema

import (
	"fmt"
	"strings"
)

// Class is the element class of a value, a small lattice ordered
// Bool ⊑ Int ⊑ Real ⊑ Complex. Int denotes a double that is known to
// hold an integral value (loop counters, sizes, indices); the distinction
// lets the backends use integer registers and addressing arithmetic.
type Class int

// Element classes.
const (
	Bool Class = iota
	Int
	Real
	Complex
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Bool:
		return "logical"
	case Int:
		return "int"
	case Real:
		return "real"
	case Complex:
		return "complex"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Join returns the least upper bound of two classes.
func (c Class) Join(d Class) Class {
	if d > c {
		return d
	}
	return c
}

// DimUnknown marks a dimension whose extent is not known statically.
const DimUnknown = -1

// Shape is the statically known extent of a value: rows × cols. MATLAB
// treats every value as a 2-D matrix; scalars are 1×1 and vectors have
// one unit dimension. A dimension of DimUnknown is symbolic (carried at
// run time).
type Shape struct {
	Rows int
	Cols int
}

// Common shapes.
var (
	ScalarShape = Shape{1, 1}
)

// RowVec returns a 1×n shape.
func RowVec(n int) Shape { return Shape{1, n} }

// ColVec returns an n×1 shape.
func ColVec(n int) Shape { return Shape{n, 1} }

// IsScalar reports whether the shape is statically 1×1.
func (s Shape) IsScalar() bool { return s.Rows == 1 && s.Cols == 1 }

// IsRowVec reports whether the shape is statically a row vector.
func (s Shape) IsRowVec() bool { return s.Rows == 1 }

// IsColVec reports whether the shape is statically a column vector.
func (s Shape) IsColVec() bool { return s.Cols == 1 }

// IsVector reports whether one dimension is statically 1.
func (s Shape) IsVector() bool { return s.Rows == 1 || s.Cols == 1 }

// Known reports whether both dimensions are statically known.
func (s Shape) Known() bool { return s.Rows != DimUnknown && s.Cols != DimUnknown }

// Len returns the number of elements, or DimUnknown if any dimension is
// unknown.
func (s Shape) Len() int {
	if !s.Known() {
		return DimUnknown
	}
	return s.Rows * s.Cols
}

// Transposed returns the shape with dimensions swapped.
func (s Shape) Transposed() Shape { return Shape{Rows: s.Cols, Cols: s.Rows} }

// String renders the shape as "RxC" with '?' for unknown dims.
func (s Shape) String() string {
	d := func(n int) string {
		if n == DimUnknown {
			return "?"
		}
		return fmt.Sprintf("%d", n)
	}
	return d(s.Rows) + "x" + d(s.Cols)
}

// joinDim merges two dimension extents: equal stays, different widens to
// unknown.
func joinDim(a, b int) int {
	if a == b {
		return a
	}
	return DimUnknown
}

// Join widens two shapes dimension-wise.
func (s Shape) Join(t Shape) Shape {
	return Shape{Rows: joinDim(s.Rows, t.Rows), Cols: joinDim(s.Cols, t.Cols)}
}

// Type pairs a class with a shape.
type Type struct {
	Class Class
	Shape Shape
}

// Convenience constructors.
func ScalarType(c Class) Type { return Type{Class: c, Shape: ScalarShape} }

// RealScalar is the type of a plain MATLAB double scalar.
var RealScalar = ScalarType(Real)

// IntScalar is the type of an integral scalar (index, size, counter).
var IntScalar = ScalarType(Int)

// BoolScalar is the type of a scalar logical.
var BoolScalar = ScalarType(Bool)

// ComplexScalar is the type of a complex scalar.
var ComplexScalar = ScalarType(Complex)

// IsScalar reports whether the type is a 1×1 value.
func (t Type) IsScalar() bool { return t.Shape.IsScalar() }

// Join widens both components.
func (t Type) Join(u Type) Type {
	return Type{Class: t.Class.Join(u.Class), Shape: t.Shape.Join(u.Shape)}
}

// String renders "class RxC" ("class" alone for scalars).
func (t Type) String() string {
	if t.IsScalar() {
		return t.Class.String()
	}
	return t.Class.String() + " " + t.Shape.String()
}

// Equal reports exact equality of class and shape.
func (t Type) Equal(u Type) bool { return t.Class == u.Class && t.Shape == u.Shape }

// Signature renders a parameter-type list compactly (memo key for
// per-signature function analysis).
func Signature(ts []Type) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}
