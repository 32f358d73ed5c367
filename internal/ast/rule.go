package ast

import (
	"fmt"
	"strings"
)

// Rule is a function-free Horn rule with optional negated EDB subgoals
// and order atoms:
//
//	head :- pos1, ..., posm, !neg1, ..., !negk, cmp1, ..., cmpj.
type Rule struct {
	Head Atom
	Pos  []Atom // positive relational subgoals (EDB or IDB)
	Neg  []Atom // negated EDB subgoals (each Atom appears under negation)
	Cmp  []Cmp  // order atoms
	// At is the rule's source position — the head token — or zero for
	// rules synthesized by rewrites.
	At Pos
}

// Clone returns a deep copy of the rule.
func (r Rule) Clone() Rule {
	out := Rule{Head: r.Head.Clone(), At: r.At}
	out.Pos = cloneAtoms(r.Pos)
	out.Neg = cloneAtoms(r.Neg)
	out.Cmp = append([]Cmp(nil), r.Cmp...)
	return out
}

// Vars returns the variables of the rule in order of first occurrence
// (head first, then positive subgoals, negated subgoals, order atoms).
func (r Rule) Vars() []string {
	// Most rules have a handful of variables: one allocation, not four.
	vs := r.Head.Vars(make([]string, 0, 8))
	for _, a := range r.Pos {
		vs = a.Vars(vs)
	}
	for _, a := range r.Neg {
		vs = a.Vars(vs)
	}
	for _, c := range r.Cmp {
		vs = c.Vars(vs)
	}
	return vs
}

// IsInit reports whether the rule is an initialization rule w.r.t. the
// given set of IDB predicates: no IDB predicate occurs in its body.
func (r Rule) IsInit(idb map[string]bool) bool {
	for _, a := range r.Pos {
		if idb[a.Pred] {
			return false
		}
	}
	return true
}

// HasCmp reports whether the rule has any order atoms.
func (r Rule) HasCmp() bool { return len(r.Cmp) > 0 }

// HasNeg reports whether the rule has any negated subgoals.
func (r Rule) HasNeg() bool { return len(r.Neg) > 0 }

// Safe checks the standard safety conditions: every variable of the
// head, of a negated subgoal, and of an order atom must occur in a
// positive relational subgoal. (This is stricter than necessary for
// order atoms — X = 3 could bind X — but matches the evaluator; the
// parser-level normalization rewrites X = c into a substitution first.)
func (r Rule) Safe() error {
	posVars := map[string]bool{}
	for _, a := range r.Pos {
		for _, t := range a.Args {
			if t.IsVar() {
				posVars[t.Name] = true
			}
		}
	}
	check := func(name, where string) error {
		if !posVars[name] {
			return fmt.Errorf("unsafe rule %s: variable %s in %s does not occur in a positive subgoal", r, name, where)
		}
		return nil
	}
	for _, t := range r.Head.Args {
		if t.IsVar() {
			if err := check(t.Name, "head"); err != nil {
				return err
			}
		}
	}
	for _, a := range r.Neg {
		for _, t := range a.Args {
			if t.IsVar() {
				if err := check(t.Name, "negated subgoal"); err != nil {
					return err
				}
			}
		}
	}
	for _, c := range r.Cmp {
		for _, v := range c.Vars(nil) {
			if err := check(v, "order atom"); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders the rule in source syntax.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Head.String())
	writeBody(&b, r.Pos, r.Neg, r.Cmp)
	b.WriteByte('.')
	return b.String()
}

// IC is an integrity constraint: a rule with an empty head. The
// constraint is violated by a database iff its body can be satisfied.
// Bodies of ic's never contain IDB predicates.
type IC struct {
	Pos []Atom // positive EDB atoms
	Neg []Atom // negated EDB atoms (each Atom appears under negation)
	Cmp []Cmp  // order atoms
	// At is the constraint's source position (the ':-' token), zero
	// for synthesized constraints.
	At Pos
}

// Clone returns a deep copy of the constraint.
func (ic IC) Clone() IC {
	return IC{Pos: cloneAtoms(ic.Pos), Neg: cloneAtoms(ic.Neg), Cmp: append([]Cmp(nil), ic.Cmp...), At: ic.At}
}

// Vars returns the variables of the constraint in order of first
// occurrence.
func (ic IC) Vars() []string {
	var vs []string
	for _, a := range ic.Pos {
		vs = a.Vars(vs)
	}
	for _, a := range ic.Neg {
		vs = a.Vars(vs)
	}
	for _, c := range ic.Cmp {
		vs = c.Vars(vs)
	}
	return vs
}

// Pure reports whether the constraint has neither order atoms nor
// negated EDB atoms (the class the core algorithm of Section 4.1
// handles directly).
func (ic IC) Pure() bool { return len(ic.Neg) == 0 && len(ic.Cmp) == 0 }

// String renders the constraint in source syntax.
func (ic IC) String() string {
	var b strings.Builder
	b.WriteString(":-")
	bb := strings.Builder{}
	writeBody(&bb, ic.Pos, ic.Neg, ic.Cmp)
	s := bb.String()
	// writeBody emits a leading " :- " separator for rules; reuse the
	// atom list portion only.
	s = strings.TrimPrefix(s, " :- ")
	if s != "" {
		b.WriteByte(' ')
		b.WriteString(s)
	}
	b.WriteByte('.')
	return b.String()
}

// writeBody writes " :- a1, ..., !n1, ..., c1, ..." to b, or nothing if
// the body is empty.
func writeBody(b *strings.Builder, pos, neg []Atom, cmp []Cmp) {
	if len(pos)+len(neg)+len(cmp) == 0 {
		return
	}
	b.WriteString(" :- ")
	first := true
	sep := func() {
		if !first {
			b.WriteString(", ")
		}
		first = false
	}
	for _, a := range pos {
		sep()
		b.WriteString(a.String())
	}
	for _, a := range neg {
		sep()
		b.WriteByte('!')
		b.WriteString(a.String())
	}
	for _, c := range cmp {
		sep()
		b.WriteString(c.String())
	}
}

func cloneAtoms(as []Atom) []Atom {
	if as == nil {
		return nil
	}
	out := make([]Atom, len(as))
	for i, a := range as {
		out[i] = a.Clone()
	}
	return out
}
