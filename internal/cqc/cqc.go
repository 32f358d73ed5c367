// Package cqc is the conjunctive-query containment core:
// CQ containment by containment mappings (with sound handling of
// order atoms, and Klug's complete linearization variant) and
// union-of-CQ containment via the Sagiv–Yannakakis theorem. It
// depends only on the AST and unification layers, so packages below
// the optimizer stack — the boundedness analyzer feeding eval.QueryCtx
// in particular — can decide containment without dragging the
// query-tree machinery into their import closure. Package contain
// builds the program-level reductions (Proposition 5.1) on top of
// this core.
package cqc

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/order"
	"repro/internal/unify"
)

// CQ is a conjunctive query, represented as a single rule: the head
// lists the distinguished variables, the body is a conjunction of
// positive EDB atoms, negated EDB atoms, and order atoms.
type CQ = ast.Rule

// Contained reports whether q1 ⊑ q2 holds for conjunctive queries
// without order atoms or negation, by searching for a containment
// mapping: a homomorphism from q2's body into q1's body that maps
// q2's head to q1's head.
func Contained(q1, q2 CQ) (bool, error) {
	if q1.HasCmp() || q2.HasCmp() || q1.HasNeg() || q2.HasNeg() {
		return false, fmt.Errorf("cqc: Contained handles pure CQs; use ContainedOrder for order atoms")
	}
	return containmentMapping(q1, q2, nil), nil
}

// containmentMapping searches for a containment mapping h from q2 into
// q1 (body atoms into body atoms, head onto head); when q1Set is
// non-nil, h must also satisfy q1Set ⊨ h(q2.Cmp).
func containmentMapping(q1, q2 CQ, q1Set *order.Set) bool {
	q2 = renameApart(q2, q1)
	pv := unify.PatternVars(append([]ast.Atom{q2.Head}, q2.Pos...)...)
	// The head must map exactly: seed the search with the head match.
	s := unify.Subst{}
	trail, ok := s.MatchBind(q2.Head, q1.Head, pv, make([]string, 0, len(pv)))
	if !ok {
		return false
	}
	var rec func(i int) bool // reports whether a mapping was found
	rec = func(i int) bool {
		if i == len(q2.Pos) {
			if q1Set == nil {
				return true
			}
			for _, c := range q2.Cmp {
				if !q1Set.Implies(s.ApplyCmp(c)) {
					return false // keep searching
				}
			}
			return true
		}
		for _, d := range q1.Pos {
			mark := len(trail)
			if trail, ok = s.MatchBind(q2.Pos[i], d, pv, trail); ok {
				found := rec(i + 1)
				trail = s.Undo(trail, mark)
				if found {
					return true
				}
			}
		}
		return false
	}
	return rec(0)
}

// renameApart renames q2's variables apart from q1's, so that a
// mapping from q2 into q1 never binds a variable to itself.
func renameApart(q2, q1 CQ) CQ {
	return ast.RenameRule(q2, ast.NewRenamer(q1.Vars()...).Next(q2.Vars()))
}

// ContainedOrder reports whether q1 ⊑ q2 for CQs whose bodies may
// carry order atoms (no negation). The test searches for a containment
// mapping h such that q1's order constraints imply h(q2's order
// constraints). This criterion is sound always, and complete whenever
// a single mapping suffices (in particular for q2 without order atoms,
// and for the common case where q1's constraints pin a total order);
// in general, completeness would require case analysis over the linear
// extensions of q1's constraints [Klu88], which ContainedOrderComplete
// provides.
func ContainedOrder(q1, q2 CQ) (bool, error) {
	if q1.HasNeg() || q2.HasNeg() {
		return false, fmt.Errorf("cqc: negation is not supported in CQ containment")
	}
	q1Set := order.NewSet(q1.Cmp...)
	if !q1Set.Satisfiable() {
		return true, nil // the empty query is contained in anything
	}
	return containmentMapping(q1, q2, q1Set), nil
}

// ContainedOrderComplete decides q1 ⊑ q2 for CQs with order atoms (no
// negation) completely, via Klug's linearization argument: q1 ⊑ q2
// iff for every total preorder π of q1's terms consistent with q1's
// order atoms, there is a containment mapping h with π ⊨ h(q2.Cmp).
// The enumeration is exponential in the number of q1's terms; use for
// small queries.
func ContainedOrderComplete(q1, q2 CQ) (bool, error) {
	if q1.HasNeg() || q2.HasNeg() {
		return false, fmt.Errorf("cqc: negation is not supported in CQ containment")
	}
	q1Set := order.NewSet(q1.Cmp...)
	if !q1Set.Satisfiable() {
		return true, nil
	}
	terms := ruleTerms(q1)
	all := true
	q1lin := q1.Clone()
	order.Linearizations(terms, q1Set, func(groups [][]ast.Term) bool {
		// For this linearization, is there a mapping?
		q1lin.Cmp = appendPins(append(q1lin.Cmp[:0], q1.Cmp...), groups)
		if !containmentMapping(q1lin, q2, order.NewSet(q1lin.Cmp...)) {
			all = false
			return false
		}
		return true
	})
	return all, nil
}

// appendPins appends the atoms that pin a linearization, given as its
// ascending groups: t1 = t2 inside a group, t1 < t2 between the first
// terms of consecutive groups.
func appendPins(dst []ast.Cmp, groups [][]ast.Term) []ast.Cmp {
	for gi, g := range groups {
		for _, t := range g[1:] {
			dst = append(dst, ast.NewCmp(g[0], ast.EQ, t))
		}
		if gi+1 < len(groups) {
			dst = append(dst, ast.NewCmp(g[0], ast.LT, groups[gi+1][0]))
		}
	}
	return dst
}

// ruleTerms collects the distinct terms (variables and constants) of
// a rule's positive atoms, order atoms, and head.
func ruleTerms(r ast.Rule) []ast.Term {
	seen := map[string]bool{}
	var out []ast.Term
	add := func(t ast.Term) {
		if !seen[t.Key()] {
			seen[t.Key()] = true
			out = append(out, t)
		}
	}
	for _, t := range r.Head.Args {
		add(t)
	}
	for _, a := range r.Pos {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, c := range r.Cmp {
		add(c.Left)
		add(c.Right)
	}
	return out
}

// UCQContained reports whether the union of CQs qs1 is contained in
// the union qs2: by the Sagiv–Yannakakis theorem, whether every
// disjunct of qs1 is contained in some disjunct of qs2. Each pair is
// decided by Contained for pure CQs and by the sound (incomplete)
// ContainedOrder when either side carries order atoms; a pair that
// errors (negation) counts as not contained and the search goes on.
// Incompleteness only ever answers false, never a wrong true.
func UCQContained(qs1, qs2 []CQ) bool {
	for _, q1 := range qs1 {
		found := false
		for _, q2 := range qs2 {
			var ok bool
			var err error
			if q1.HasCmp() || q2.HasCmp() {
				ok, err = ContainedOrder(q1, q2)
			} else {
				ok, err = Contained(q1, q2)
			}
			if err == nil && ok {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
