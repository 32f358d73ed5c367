package ast

import (
	"slices"
	"strconv"
	"strings"
)

// RenameAtom returns a copy of a with every variable renamed by f.
func RenameAtom(a Atom, f func(string) string) Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsVar() {
			out.Args[i] = V(f(t.Name))
		}
	}
	return out
}

// RenameCmp returns a copy of c with every variable renamed by f.
func RenameCmp(c Cmp, f func(string) string) Cmp {
	if c.Left.IsVar() {
		c.Left = V(f(c.Left.Name))
	}
	if c.Right.IsVar() {
		c.Right = V(f(c.Right.Name))
	}
	return c
}

// RenameRule returns a copy of r with every variable renamed by f.
func RenameRule(r Rule, f func(string) string) Rule {
	return MapRule(r, func(t Term) Term {
		if t.IsVar() {
			return V(f(t.Name))
		}
		return t
	})
}

// MapRule returns a copy of r with every term replaced by f of it, f
// called on the terms in order of occurrence: head, positive and
// negated subgoals, order atoms (left, then right). Empty body lists
// come back nil.
func MapRule(r Rule, f func(Term) Term) Rule {
	out := r.Clone()
	mapArgs := func(args []Term) {
		for i, t := range args {
			args[i] = f(t)
		}
	}
	mapArgs(out.Head.Args)
	for _, a := range out.Pos {
		mapArgs(a.Args)
	}
	for _, a := range out.Neg {
		mapArgs(a.Args)
	}
	for i := range out.Cmp {
		out.Cmp[i].Left = f(out.Cmp[i].Left)
		out.Cmp[i].Right = f(out.Cmp[i].Right)
	}
	if len(out.Pos) == 0 {
		out.Pos = nil
	}
	if len(out.Neg) == 0 {
		out.Neg = nil
	}
	return out
}

// RenameIC returns a copy of ic with every variable renamed by f.
func RenameIC(ic IC, f func(string) string) IC {
	out := IC{At: ic.At}
	for _, a := range ic.Pos {
		out.Pos = append(out.Pos, RenameAtom(a, f))
	}
	for _, a := range ic.Neg {
		out.Neg = append(out.Neg, RenameAtom(a, f))
	}
	for _, c := range ic.Cmp {
		out.Cmp = append(out.Cmp, RenameCmp(c, f))
	}
	return out
}

// Renamer renames variables apart from a set of names it avoids. Each
// call to Next picks a suffix "_n", n counting up from 1 across calls,
// and skips every n under which a renamed variable would land on an
// avoided name. Nothing is skipped unless a name collides, so renamed
// rules keep the plain "_n" spelling and stay re-parseable. Renamings
// from different calls never share a name: n follows the last '_'.
// The avoided names are a slice, not a set: they are a few rules'
// variables, and a renamer is made per containment test.
type Renamer struct {
	avoid []string
	n     int
}

// NewRenamer returns a Renamer that never produces any of avoid.
func NewRenamer(avoid ...string) *Renamer {
	return &Renamer{avoid: slices.Clip(avoid)}
}

// Avoid adds names the renamer must never produce.
func (r *Renamer) Avoid(names ...string) {
	for _, v := range names {
		if !slices.Contains(r.avoid, v) {
			r.avoid = append(r.avoid, v)
		}
	}
}

// Collides reports whether any of vars is an avoided name.
func (r *Renamer) Collides(vars []string) bool {
	return slices.ContainsFunc(vars, func(v string) bool { return slices.Contains(r.avoid, v) })
}

// Next returns a renaming that is injective on vars and maps none of
// them to an avoided name. It must only be applied to vars.
func (r *Renamer) Next(vars []string) func(string) string {
	for {
		r.n++
		suffix := "_" + strconv.Itoa(r.n)
		lands := func(v string) bool {
			return slices.ContainsFunc(r.avoid, func(a string) bool {
				return len(a) == len(v)+len(suffix) && strings.HasPrefix(a, v) && strings.HasSuffix(a, suffix)
			})
		}
		if !slices.ContainsFunc(vars, lands) {
			return func(v string) string { return v + suffix }
		}
	}
}

// CanonicalizeAtom renames the variables of a to V0, V1, ... in order
// of first occurrence, returning the renamed atom and the mapping from
// old to new names. Two atoms are isomorphic iff their canonical forms
// are equal.
func CanonicalizeAtom(a Atom) (Atom, map[string]string) {
	m := map[string]string{}
	out := a.Clone()
	for i, t := range out.Args {
		if !t.IsVar() {
			continue
		}
		nn, ok := m[t.Name]
		if !ok {
			nn = "V" + strconv.Itoa(len(m))
			m[t.Name] = nn
		}
		out.Args[i] = V(nn)
	}
	return out, m
}
