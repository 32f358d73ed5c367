// Package rewrite implements the pre-processing passes the paper
// assumes have run before its query-tree algorithm:
//
//   - NormalizeOrder: per-rule order-constraint normalization — rules
//     with unsatisfiable order atoms are removed and equalities implied
//     by the order atoms are substituted out (the paper: "we have
//     substituted X for Y whenever the order atoms of the rule imply
//     that X = Y"). This is the rule-local portion of the [LMSS93]
//     algorithm.
//   - PushOrder: top-down propagation of the order constraints a
//     calling context implies into specialized copies of the IDB
//     predicates — the selection-pushing, inter-rule portion of
//     [LS92, LMSS93].
//   - PropagateHeadEqualities: equalities every rule head of a
//     predicate forces, pushed into the subgoals that call it.
//   - PlanICs and RewriteLocalPlanned: the classification of the
//     integrity constraints and the Section 4.2 rewriting that transfers
//     local order atoms and negated EDB atoms into the rules via case
//     splits, producing the (a, l) pairs the modified adornment
//     computation consults.
package rewrite

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/order"
	"repro/internal/unify"
)

// NormalizeOrder removes rules whose order atoms are jointly
// unsatisfiable and substitutes out equalities the order atoms force
// (choosing a constant representative when one exists). Tautological
// order atoms (implied by the remaining ones) are pruned; ground
// comparisons that evaluate to true disappear, and ones evaluating to
// false drop the rule.
func NormalizeOrder(p *ast.Program) *ast.Program {
	out := &ast.Program{Query: p.Query}
	for _, r := range p.Rules {
		nr, ok := NormalizeRule(r)
		if ok {
			out.Rules = append(out.Rules, nr)
		}
	}
	return out
}

// NormalizeRule normalizes a single rule, reporting false if the rule
// can never fire because its order atoms are unsatisfiable.
func NormalizeRule(r ast.Rule) (ast.Rule, bool) {
	set := order.NewSet(r.Cmp...)
	if !set.Satisfiable() {
		return ast.Rule{}, false
	}
	// Substitute forced equalities (X = Y, or X pinned to a constant).
	eqs := set.ForcedEqualities()
	if len(eqs) > 0 {
		s := unify.Subst{}
		for v, rep := range eqs {
			s[v] = rep
		}
		r = s.ApplyRule(r)
	} else {
		r = r.Clone()
	}
	// Rebuild the order-atom list: drop atoms implied by the others
	// (including now-trivial X = X and ground truths). Atom i is
	// tested against the kept atoms plus the NOT-YET-PROCESSED ones
	// only — never against an already-dropped atom — so two mutually
	// implying atoms cannot erase each other (one of them survives; of
	// several copies of one atom, the last). The rule's one Set is
	// refilled per atom.
	var kept []ast.Cmp
	for i, c := range r.Cmp {
		set.Reset()
		set.AddAll(kept)
		set.AddAll(r.Cmp[i+1:])
		if !set.Implies(c) {
			kept = append(kept, c)
		}
	}
	r.Cmp = kept
	return r, true
}

// collectConstants returns the constants mentioned in order atoms of
// the program, used as the candidate vocabulary for summaries.
func collectConstants(p *ast.Program) []ast.Term {
	seen := map[string]bool{}
	var out []ast.Term
	note := func(t ast.Term) {
		if t.IsConst() && !seen[t.Key()] {
			seen[t.Key()] = true
			out = append(out, t)
		}
	}
	for _, r := range p.Rules {
		for _, c := range r.Cmp {
			note(c.Left)
			note(c.Right)
		}
		for _, a := range r.Pos {
			for _, t := range a.Args {
				note(t)
			}
		}
		for _, t := range r.Head.Args {
			note(t) // head constants too (rare)
		}
	}
	return out
}

// argVar names the canonical variable for head argument position i.
func argVar(i int) ast.Term { return ast.V("A" + strconv.Itoa(i)) }

// argSubst maps the canonical variables A0..A(n-1) to an atom's
// argument terms.
func argSubst(args []ast.Term) unify.Subst {
	s := make(unify.Subst, len(args))
	for i, t := range args {
		s[argVar(i).Name] = t
	}
	return s
}

// candidateCmps is the vocabulary of order atoms over the argument
// positions of an n-ary predicate: comparisons among the canonical
// variables A0..A(n-1) and against the given constants.
func candidateCmps(n int, consts []ast.Term) []ast.Cmp {
	var out []ast.Cmp
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, op := range []ast.CmpOp{ast.LT, ast.LE, ast.EQ, ast.NE} {
				out = append(out, ast.NewCmp(argVar(i), op, argVar(j)))
				out = append(out, ast.NewCmp(argVar(j), op, argVar(i)))
			}
		}
		for _, c := range consts {
			for _, op := range []ast.CmpOp{ast.LT, ast.LE, ast.EQ, ast.NE, ast.GT, ast.GE} {
				out = append(out, ast.NewCmp(argVar(i), op, c))
			}
		}
	}
	return out
}
