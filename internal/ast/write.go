package ast

import (
	"slices"
	"strconv"
	"strings"
)

// writer renders AST nodes in source syntax into one builder. With
// canon set it renders every variable as V<i>, i its index in vars, the
// variables in order of first occurrence.
type writer struct {
	strings.Builder
	canon bool
	vars  []string
}

func (w *writer) term(t Term) {
	switch {
	case t.Kind == Var && w.canon:
		i := slices.Index(w.vars, t.Name)
		if i < 0 {
			i = len(w.vars)
			w.vars = append(w.vars, t.Name)
		}
		var buf [24]byte
		w.Write(strconv.AppendInt(append(buf[:0], 'V'), int64(i), 10))
	case t.Kind == Num:
		var buf [24]byte
		w.Write(strconv.AppendFloat(buf[:0], t.Val, 'g', -1, 64))
	case t.Kind == Str && needsQuote(t.Name):
		var buf [32]byte
		w.Write(strconv.AppendQuote(buf[:0], t.Name))
	default:
		w.WriteString(t.Name)
	}
}

func (w *writer) atom(a Atom) {
	w.WriteString(a.Pred)
	if len(a.Args) == 0 {
		return
	}
	w.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			w.WriteString(", ")
		}
		w.term(t)
	}
	w.WriteByte(')')
}

func (w *writer) cmp(c Cmp) {
	w.term(c.Left)
	w.WriteByte(' ')
	w.WriteString(c.Op.String())
	w.WriteByte(' ')
	w.term(c.Right)
}

// body writes "a1, ..., !n1, ..., c1, ...".
func (w *writer) body(pos, neg []Atom, cmp []Cmp) {
	first := true
	sep := func() {
		if !first {
			w.WriteString(", ")
		}
		first = false
	}
	for _, a := range pos {
		sep()
		w.atom(a)
	}
	for _, a := range neg {
		sep()
		w.WriteByte('!')
		w.atom(a)
	}
	for _, c := range cmp {
		sep()
		w.cmp(c)
	}
}

func (w *writer) rule(r Rule) {
	w.Grow(24 * (1 + len(r.Pos) + len(r.Neg) + len(r.Cmp))) // most atoms render in fewer bytes
	w.atom(r.Head)
	if len(r.Pos)+len(r.Neg)+len(r.Cmp) > 0 {
		w.WriteString(" :- ")
		w.body(r.Pos, r.Neg, r.Cmp)
	}
	w.WriteByte('.')
}
