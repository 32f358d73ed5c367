// Package rewrite implements the pre-processing passes the paper
// assumes have run before its query-tree algorithm:
//
//   - NormalizeOrder: per-rule order-constraint normalization — rules
//     with unsatisfiable order atoms are removed and equalities implied
//     by the order atoms are substituted out (the paper: "we have
//     substituted X for Y whenever the order atoms of the rule imply
//     that X = Y"). This is the rule-local portion of the [LMSS93]
//     algorithm.
//   - OrderSummaries / Strengthen: a fixpoint that infers, for every
//     IDB predicate, the order constraints guaranteed to hold among its
//     head arguments in every derivation, and propagates them into rule
//     bodies — the inter-rule portion of [LMSS93], in simplified form.
//   - RewriteLocal: the Section 4.2 rewriting that transfers local
//     order atoms and negated EDB atoms of integrity constraints into
//     the rules via case splits, producing the (a, l) pairs the
//     modified adornment computation consults.
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

// Summary holds the order constraints guaranteed among an IDB
// predicate's arguments (named A0, A1, ...) in every derivation.
type Summary struct {
	Pred  string
	Arity int
	Cmps  []ast.Cmp // over variables A0..A(n-1) and constants
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

// OrderSummaries computes, for each IDB predicate, the set of
// candidate order atoms over its argument positions (and the program's
// constants) that hold in every derivation. It is a greatest-fixpoint
// computation: summaries start at "all candidates" and shrink until
// stable.
func OrderSummaries(p *ast.Program) map[string]*Summary {
	idb := p.IDB()
	ar, err := p.PredArity()
	if err != nil {
		return map[string]*Summary{}
	}
	consts := collectConstants(p)

	sums := map[string]*Summary{}
	for pred := range idb {
		sums[pred] = &Summary{Pred: pred, Arity: ar[pred], Cmps: candidateCmps(ar[pred], consts)}
	}

	for changed := true; changed; {
		changed = false
		for pred := range idb {
			var newCmps []ast.Cmp
			first := true
			for _, r := range p.RulesFor(pred) {
				implied := ruleImplied(r, sums, idb)
				if first {
					newCmps = filterImplied(sums[pred].Cmps, r, implied)
					first = false
				} else {
					newCmps = intersectCmps(newCmps, filterImplied(sums[pred].Cmps, r, implied))
				}
			}
			if len(newCmps) != len(sums[pred].Cmps) {
				sums[pred].Cmps = newCmps
				changed = true
			}
		}
	}
	return sums
}

// ruleImplied builds the order-constraint set known to hold for an
// instantiation of rule r, combining the rule's own order atoms with
// the current summaries of its IDB subgoals.
func ruleImplied(r ast.Rule, sums map[string]*Summary, idb map[string]bool) *order.Set {
	set := order.NewSet(r.Cmp...)
	for _, sub := range r.Pos {
		if !idb[sub.Pred] {
			continue
		}
		sum := sums[sub.Pred]
		if sum == nil {
			continue
		}
		// Instantiate the summary's A_i with the subgoal's argument
		// terms.
		s := argSubst(sub.Args)
		for _, c := range sum.Cmps {
			set.Add(s.ApplyCmp(c))
		}
	}
	return set
}

// filterImplied keeps the candidate atoms (over A_i) that the rule
// guarantees, translating head argument positions to the rule's head
// terms.
func filterImplied(cands []ast.Cmp, r ast.Rule, implied *order.Set) []ast.Cmp {
	s := argSubst(r.Head.Args)
	var out []ast.Cmp
	for _, c := range cands {
		if implied.Implies(s.ApplyCmp(c)) {
			out = append(out, c)
		}
	}
	return out
}

func intersectCmps(a, b []ast.Cmp) []ast.Cmp {
	keys := map[string]bool{}
	for _, c := range b {
		keys[c.Key()] = true
	}
	var out []ast.Cmp
	for _, c := range a {
		if keys[c.Key()] {
			out = append(out, c)
		}
	}
	return out
}

// Strengthen adds, for every IDB subgoal occurrence in every rule, the
// subgoal predicate's summary constraints (instantiated with the
// subgoal's arguments) to the rule body, then re-normalizes. This
// propagates guaranteed constraints upward so that later passes (and
// the evaluator's filters) can exploit them. The transformation is an
// equivalence: the added atoms hold in every derivation by
// construction.
func Strengthen(p *ast.Program) *ast.Program {
	sums := OrderSummaries(p)
	idb := p.IDB()
	out := &ast.Program{Query: p.Query}
	for _, r := range p.Rules {
		nr := r.Clone()
		set := order.NewSet(nr.Cmp...)
		for _, sub := range nr.Pos {
			if !idb[sub.Pred] {
				continue
			}
			sum := sums[sub.Pred]
			if sum == nil {
				continue
			}
			s := argSubst(sub.Args)
			for _, c := range sum.Cmps {
				inst := s.ApplyCmp(c)
				if !set.Implies(inst) {
					nr.Cmp = append(nr.Cmp, inst)
					set.Add(inst)
				}
			}
		}
		if norm, ok := NormalizeRule(nr); ok {
			out.Rules = append(out.Rules, norm)
		}
	}
	return out
}
