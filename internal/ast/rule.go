package ast

import (
	"fmt"
	"slices"
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

// Clone returns a deep copy of the rule. The copy's argument lists
// share one backing array, each capped at its own length.
func (r Rule) Clone() Rule {
	c := newCloner(len(r.Head.Args), r.Pos, r.Neg)
	return Rule{Head: c.atom(r.Head), Pos: c.atoms(r.Pos), Neg: c.atoms(r.Neg), Cmp: append([]Cmp(nil), r.Cmp...), At: r.At}
}

// Equal reports structural equality (positions aside), the equality
// String renders: two rules are Equal iff they print alike.
func (r Rule) Equal(s Rule) bool {
	return r.Head.Equal(s.Head) && slices.EqualFunc(r.Pos, s.Pos, Atom.Equal) &&
		slices.EqualFunc(r.Neg, s.Neg, Atom.Equal) && slices.EqualFunc(r.Cmp, s.Cmp, Cmp.Equal)
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
		for _, t := range [2]Term{c.Left, c.Right} {
			if t.IsVar() {
				if err := check(t.Name, "order atom"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// String renders the rule in source syntax.
func (r Rule) String() string {
	var w writer
	w.rule(r)
	return w.String()
}

// CanonicalString renders the rule with its variables renamed V0, V1,
// ... in order of first occurrence, so alphabetic variants render
// alike: String of that renaming, without building the renamed copy.
func (r Rule) CanonicalString() string {
	w := writer{canon: true}
	w.rule(r)
	return w.String()
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

// String renders the constraint in source syntax.
func (ic IC) String() string {
	var w writer
	w.WriteString(":-")
	if len(ic.Pos)+len(ic.Neg)+len(ic.Cmp) > 0 {
		w.WriteByte(' ')
		w.body(ic.Pos, ic.Neg, ic.Cmp)
	}
	w.WriteByte('.')
	return w.String()
}

// cloner deep-copies atoms, their argument lists carved from one
// backing array sized up front.
type cloner struct{ terms []Term }

// newCloner sizes a cloner for extra arguments plus those of the atom
// lists.
func newCloner(extra int, lists ...[]Atom) cloner {
	for _, as := range lists {
		for _, a := range as {
			extra += len(a.Args)
		}
	}
	return cloner{terms: make([]Term, 0, extra)}
}

func (c *cloner) atom(a Atom) Atom {
	i := len(c.terms)
	c.terms = append(c.terms, a.Args...)
	a.Args = c.terms[i:len(c.terms):len(c.terms)]
	return a
}

// atoms copies as (nil stays nil).
func (c *cloner) atoms(as []Atom) []Atom {
	if as == nil {
		return nil
	}
	out := make([]Atom, len(as))
	for i, a := range as {
		out[i] = c.atom(a)
	}
	return out
}
