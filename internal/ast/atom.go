package ast

import (
	"slices"
	"strconv"
	"strings"
)

// Atom is a relational atom p(t1, ..., tn). The comparison predicates
// are not represented as Atoms; see Cmp.
type Atom struct {
	Pred string
	Args []Term
	// At is the atom's source position (zero for synthesized atoms).
	// It is metadata only: Equal, Key, PatternKey, and Isomorphic all
	// ignore it.
	At Pos
}

// NewAtom builds an atom from a predicate name and terms.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args, At: a.At}
}

// Equal reports structural equality.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// Vars appends the variables of a to dst in order of first occurrence,
// skipping duplicates already present in dst, and returns dst.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if t.IsVar() && !containsStr(dst, t.Name) {
			dst = append(dst, t.Name)
		}
	}
	return dst
}

// HasVar reports whether variable name occurs in the atom.
func (a Atom) HasVar(name string) bool {
	for _, t := range a.Args {
		if t.IsVar() && t.Name == name {
			return true
		}
	}
	return false
}

// Ground reports whether the atom contains no variables.
func (a Atom) Ground() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the atom (constants and
// variable names included verbatim). Two atoms have the same Key iff
// they are structurally equal.
func (a Atom) Key() string {
	var buf [64]byte
	return string(a.AppendKey(buf[:0]))
}

// AppendKey appends the atom's Key to dst and returns the extended
// buffer.
func (a Atom) AppendKey(dst []byte) []byte {
	dst = append(append(dst, a.Pred...), '(')
	for i, t := range a.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = t.AppendKey(dst)
	}
	return append(dst, ')')
}

// PatternKey returns a key describing the predicate plus the pattern of
// equalities among arguments and the positions/values of constants,
// ignoring the particular variable names. Two atoms have the same
// PatternKey iff they are isomorphic (equal up to a variable renaming).
// For example p(X,Y,X) and p(A,B,A) share a PatternKey, while p(X,X,Y)
// does not share it with them.
func (a Atom) PatternKey() string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	seen := map[string]int{}
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if t.IsVar() {
			id, ok := seen[t.Name]
			if !ok {
				id = len(seen)
				seen[t.Name] = id
			}
			b.WriteByte('v')
			b.WriteString(strconv.Itoa(id))
		} else {
			var buf [24]byte
			b.Write(t.AppendKey(buf[:0]))
		}
	}
	b.WriteByte(')')
	return b.String()
}

// String renders the atom in source syntax.
func (a Atom) String() string {
	var w writer
	w.Grow(len(a.Pred) + 2 + 4*len(a.Args))
	w.atom(a)
	return w.String()
}

// AtomsKey returns a canonical, order-insensitive key for a set of
// atoms: the sorted concatenation of their Keys.
func AtomsKey(atoms []Atom) string {
	return sortedKeys(atoms, Atom.AppendKey)
}

// sortedKeys returns the Keys of xs sorted and joined by ';'.
func sortedKeys[T any](xs []T, appendKey func(T, []byte) []byte) string {
	keys := make([]string, len(xs))
	var buf []byte
	for i, x := range xs {
		buf = appendKey(x, buf[:0])
		keys[i] = string(buf)
	}
	slices.Sort(keys)
	return strings.Join(keys, ";")
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
