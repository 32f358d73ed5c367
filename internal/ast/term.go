// Package ast defines the abstract syntax of datalog programs with
// dense-order comparison atoms, negated EDB subgoals, and integrity
// constraints (rules with empty heads), exactly as used in
// Levy & Sagiv, "Semantic Query Optimization in Datalog Programs"
// (PODS 1995).
//
// The package also provides the structural operations the optimizer is
// built on: variable collection, substitution application, renaming
// apart, canonical forms, and atom isomorphism.
package ast

import (
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of terms.
type TermKind uint8

const (
	// Var is a datalog variable (written with a leading upper-case
	// letter or underscore, e.g. X, Y1, _Tmp).
	Var TermKind = iota
	// Num is a numeric constant drawn from the dense order.
	Num
	// Str is a symbolic (string) constant.
	Str
)

// Term is a variable or a constant. Terms are small values and are
// passed by value throughout.
type Term struct {
	Kind TermKind
	// Name holds the variable name (Kind == Var) or the string
	// constant (Kind == Str).
	Name string
	// Val holds the numeric constant when Kind == Num.
	Val float64
}

// V returns a variable term with the given name.
func V(name string) Term { return Term{Kind: Var, Name: name} }

// N returns a numeric constant term. It is the only constructor of
// numeric terms, and it stores negative zero as zero: Equal, Compare and
// every map keyed on Term identify the two (float ==), so Key and String
// — what tuple keys, fact keys and cache keys are made of — must render
// them alike.
func N(v float64) Term {
	if v == 0 {
		v = 0 // -0 == 0: drops the sign
	}
	return Term{Kind: Num, Val: v}
}

// S returns a string constant term.
func S(s string) Term { return Term{Kind: Str, Name: s} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Kind == Var }

// IsConst reports whether t is a constant (numeric or string).
func (t Term) IsConst() bool { return t.Kind != Var }

// Equal reports structural equality of two terms.
func (t Term) Equal(u Term) bool {
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case Num:
		return t.Val == u.Val
	default:
		return t.Name == u.Name
	}
}

// Compare totally orders constant terms: numeric constants order
// numerically and precede all string constants, which order
// lexicographically. Compare panics if either term is a variable.
// The induced order is dense-enough for the solver's purposes: between
// any two distinct numeric constants another constant exists, and the
// order has no greatest element.
func (t Term) Compare(u Term) int {
	if t.IsVar() || u.IsVar() {
		panic("ast: Compare called on a variable term")
	}
	if t.Kind == Num && u.Kind == Num {
		switch {
		case t.Val < u.Val:
			return -1
		case t.Val > u.Val:
			return 1
		default:
			return 0
		}
	}
	if t.Kind == Num {
		return -1 // all numbers precede all strings
	}
	if u.Kind == Num {
		return 1
	}
	return strings.Compare(t.Name, u.Name)
}

// Key returns a compact string key unique to the term, suitable for
// use as a map key alongside terms of all kinds.
func (t Term) Key() string {
	var buf [24]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends the term's Key to dst and returns the extended
// buffer.
func (t Term) AppendKey(dst []byte) []byte {
	switch t.Kind {
	case Var:
		return append(append(dst, '?'), t.Name...)
	case Num:
		return strconv.AppendFloat(append(dst, '#'), t.Val, 'g', -1, 64)
	default:
		return append(append(dst, '$'), t.Name...)
	}
}

// String renders the term in source syntax.
func (t Term) String() string {
	if t.Kind == Var || t.Kind == Str && !needsQuote(t.Name) {
		return t.Name
	}
	var w writer
	w.term(t)
	return w.String()
}

// needsQuote reports whether a string constant cannot be written as a
// bare lower-case identifier.
func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z', r == '_':
			if i == 0 {
				return true // would parse as a variable
			}
		case r >= '0' && r <= '9':
			if i == 0 {
				return true
			}
		default:
			return true
		}
	}
	return false
}
