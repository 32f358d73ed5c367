package rewrite

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/order"
	"repro/internal/unify"
)

// LocalPair records the association of Section 4.2: a local atom l of
// an integrity constraint together with the positive EDB atom
// (the anchor) of the same constraint that contains all of l's
// variables. Exactly one of OrderAtom and NegEDB is set.
type LocalPair struct {
	// Anchor is the positive EDB atom containing all variables of the
	// local atom.
	Anchor ast.Atom
	// OrderAtom is set when the local atom is an order atom of the ic.
	OrderAtom *ast.Cmp
	// NegEDB is set when the local atom is a negated EDB atom of the
	// ic (stored positively).
	NegEDB *ast.Atom
}

// String renders the pair for diagnostics.
func (lp LocalPair) String() string {
	if lp.OrderAtom != nil {
		return fmt.Sprintf("(%s, %s)", lp.Anchor, lp.OrderAtom)
	}
	return fmt.Sprintf("(%s, !%s)", lp.Anchor, lp.NegEDB)
}

// anchorFor finds a positive atom of the ic containing all the given
// variables.
func anchorFor(ic ast.IC, vars []string) (ast.Atom, bool) {
	for _, a := range ic.Pos {
		all := true
		for _, v := range vars {
			if !a.HasVar(v) {
				all = false
				break
			}
		}
		if all {
			return a, true
		}
	}
	return ast.Atom{}, false
}

// RewriteLocalPlanned performs the Section 4.2 program rewriting with
// the pairs of the supported constraints' plans (PlanICs): repeatedly,
// for every pair (a, l) and rule r with an EDB atom a' such that a
// homomorphism h maps a to a', if neither h(l) nor ¬h(l) appears in the
// body of r, r is replaced by two copies — one extended with h(l) and
// one with ¬h(l). (For an order atom, ¬h(l) is the complementary order
// atom; for an EDB atom, the two copies carry the atom positively and
// under negation.) Rules whose order atoms become unsatisfiable are
// dropped. The same pairs feed the modified adornment computation of the
// query-tree algorithm.
func RewriteLocalPlanned(p *ast.Program, plans []ICPlan) *ast.Program {
	var pairs []LocalPair
	for _, plan := range plans {
		if plan.Unsupported {
			continue
		}
		pairs = append(pairs, plan.Pairs...)
	}
	idb := p.IDB()
	work := make([]ast.Rule, len(p.Rules))
	copy(work, p.Rules)
	var done []ast.Rule
	for len(work) > 0 {
		r := work[0]
		work = work[1:]
		split := false
		for _, lp := range pairs {
			r1, r2, didSplit := splitOn(r, lp, idb)
			if didSplit {
				if nr, ok := NormalizeRule(r1); ok {
					work = append(work, nr)
				}
				if nr, ok := NormalizeRule(r2); ok {
					work = append(work, nr)
				}
				split = true
				break
			}
		}
		if !split {
			done = append(done, r)
		}
	}
	return &ast.Program{Query: p.Query, Rules: done}
}

// splitOn looks for an EDB atom of r matching the pair's anchor whose
// transferred local literal is undetermined in r, and returns the two
// case-split copies.
func splitOn(r ast.Rule, lp LocalPair, idb map[string]bool) (ast.Rule, ast.Rule, bool) {
	// Rename the anchor (and local atom, whose variables are the
	// anchor's) apart from the rule.
	ruleVars := r.Vars()
	ren := ast.NewRenamer(ruleVars...).Next(lp.Anchor.Vars(nil))
	anchor := ast.RenameAtom(lp.Anchor, ren)
	var lOrder *ast.Cmp
	var lNeg *ast.Atom
	if lp.OrderAtom != nil {
		c := ast.RenameCmp(*lp.OrderAtom, ren)
		lOrder = &c
	} else {
		a := ast.RenameAtom(*lp.NegEDB, ren)
		lNeg = &a
	}

	set := order.NewSet(r.Cmp...)
	var vars []string // reused for the mapped local atom's variables
	for _, aPrime := range r.Pos {
		if idb[aPrime.Pred] {
			continue
		}
		var hit bool
		var ruleA, ruleB ast.Rule
		unify.Homomorphisms([]ast.Atom{anchor}, []ast.Atom{aPrime}, func(h unify.Subst) bool {
			if lOrder != nil {
				hl := h.ApplyCmp(*lOrder)
				if vars = hl.Vars(vars[:0]); !allIn(vars, ruleVars) {
					return true // mapping leaves variables free; skip
				}
				if set.Implies(hl) || set.Implies(hl.Negate()) {
					return true // already determined
				}
				ruleA = r.Clone()
				ruleA.Cmp = append(ruleA.Cmp, hl)
				ruleB = r.Clone()
				ruleB.Cmp = append(ruleB.Cmp, hl.Negate())
				hit = true
				return false
			}
			hl := h.ApplyAtom(*lNeg)
			if vars = hl.Vars(vars[:0]); !allIn(vars, ruleVars) {
				return true
			}
			if atomIn(hl, r.Pos) || atomIn(hl, r.Neg) {
				return true // already determined
			}
			ruleA = r.Clone()
			ruleA.Pos = append(ruleA.Pos, hl)
			ruleB = r.Clone()
			ruleB.Neg = append(ruleB.Neg, hl)
			hit = true
			return false
		})
		if hit {
			return ruleA, ruleB, true
		}
	}
	return ast.Rule{}, ast.Rule{}, false
}

// allIn reports whether every variable of vars is one of the rule's.
func allIn(vars, ruleVars []string) bool {
	for _, v := range vars {
		if !slices.Contains(ruleVars, v) {
			return false
		}
	}
	return true
}

func atomIn(a ast.Atom, as []ast.Atom) bool {
	for _, b := range as {
		if a.Equal(b) {
			return true
		}
	}
	return false
}
