// Package residue implements residue computation in the style of
// Chakravarthy, Grant & Minker ("Foundations of semantic query
// optimization for deductive databases", 1988) — the prior art the
// paper builds on and the baseline its query-tree algorithm is
// compared against (ablation A2 in DESIGN.md).
//
// Given a rule r and an integrity constraint c, a partial mapping τ of
// a subset of c's positive atoms into the body of r yields a residue:
// the conjuncts of c not mapped by τ, with τ applied. Every consistent
// database satisfies the negation of each residue for every
// instantiation of r, so residues may be attached to r as extra
// (negated) conditions, or — when a residue is empty — r may be
// deleted outright. The limitation of this per-rule view, and the
// point of the paper, is that interactions spanning several rules of a
// recursive program are invisible to it.
package residue

import (
	"repro/internal/ast"
	"repro/internal/order"
	"repro/internal/unify"
)

// Residue is the unmapped remainder of an integrity constraint under a
// partial mapping into a rule body. Variables that were mapped have
// been replaced by rule terms; remaining variables are existentially
// quantified "fresh" variables of the constraint.
type Residue struct {
	Pos []ast.Atom
	Neg []ast.Atom
	Cmp []ast.Cmp
}

// Empty reports whether nothing of the constraint remains unmapped —
// i.e. the constraint maps fully into the rule body, so the rule can
// never fire on a consistent database.
func (res Residue) Empty() bool {
	return len(res.Pos) == 0 && len(res.Neg) == 0 && len(res.Cmp) == 0
}

// key canonically identifies a residue for deduplication.
func (res Residue) key() string {
	return ast.AtomsKey(res.Pos) + "|!" + ast.AtomsKey(res.Neg) + "|" + ast.CmpsKey(res.Cmp)
}

// Compute returns the residues of ic with respect to rule r, one per
// homomorphism from each non-empty subset of ic's positive atoms into
// the positive subgoals of r. Residues are deduplicated. The trivial
// residue (empty mapping) is not returned: it carries no information
// beyond the constraint itself.
func Compute(r ast.Rule, ic ast.IC) []Residue {
	// Rename the constraint apart from the rule so one-way matching is
	// well-defined.
	ren := ast.NewRenamer(r.Vars()...)
	if vs := ic.Vars(); ren.Collides(vs) {
		ic = ast.RenameIC(ic, ren.Next(vs))
	}

	var out []Residue
	seen := map[string]bool{}
	n := len(ic.Pos)
	// Enumerate non-empty subsets of the positive atoms.
	for mask := 1; mask < 1<<n; mask++ {
		var mapped []ast.Atom
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				mapped = append(mapped, ic.Pos[i])
			}
		}
		unify.Homomorphisms(mapped, r.Pos, func(h unify.Subst) bool {
			res := Residue{}
			for i := 0; i < n; i++ {
				if mask&(1<<i) == 0 {
					res.Pos = append(res.Pos, h.ApplyAtom(ic.Pos[i]))
				}
			}
			for _, a := range ic.Neg {
				res.Neg = append(res.Neg, h.ApplyAtom(a))
			}
			for _, c := range ic.Cmp {
				res.Cmp = append(res.Cmp, h.ApplyCmp(c))
			}
			if k := res.key(); !seen[k] {
				seen[k] = true
				out = append(out, res)
			}
			return true
		})
	}
	return out
}

// groundedIn reports whether every variable of the residue occurs in
// the rule (i.e. the partial mapping instantiated the whole residue
// with rule terms), so its negation is expressible as extra literals
// of the rule.
func (res Residue) groundedIn(r ast.Rule) bool {
	ruleVars := map[string]bool{}
	for _, v := range r.Vars() {
		ruleVars[v] = true
	}
	check := func(v string) bool { return ruleVars[v] }
	for _, a := range res.Pos {
		for _, v := range a.Vars(nil) {
			if !check(v) {
				return false
			}
		}
	}
	for _, a := range res.Neg {
		for _, v := range a.Vars(nil) {
			if !check(v) {
				return false
			}
		}
	}
	for _, c := range res.Cmp {
		for _, v := range c.Vars(nil) {
			if !check(v) {
				return false
			}
		}
	}
	return true
}

// OptimizeRule applies all residues of the given constraints to the
// rule. It returns the rewritten rule set (several rules when the
// negation of a multi-atom order residue forces a case split, none
// when some residue proves the rule unsatisfiable) and whether the
// rule was dropped.
func OptimizeRule(r ast.Rule, ics []ast.IC) ([]ast.Rule, bool) {
	rules := []ast.Rule{r.Clone()}
	for _, ic := range ics {
		var next []ast.Rule
		for _, cur := range rules {
			rs, dropped := applyICToRule(cur, ic)
			if !dropped {
				next = append(next, rs...)
			}
		}
		rules = next
		if len(rules) == 0 {
			return nil, true
		}
	}
	// Final order-consistency sweep: a rule whose order atoms are
	// jointly unsatisfiable can never fire.
	var live []ast.Rule
	for _, cur := range rules {
		if order.NewSet(cur.Cmp...).Satisfiable() {
			live = append(live, cur)
		}
	}
	return live, len(live) == 0
}

// applyICToRule folds one constraint's residues into one rule.
func applyICToRule(r ast.Rule, ic ast.IC) ([]ast.Rule, bool) {
	rules := []ast.Rule{r}
	for _, res := range Compute(r, ic) {
		switch {
		case res.Empty():
			// The whole constraint maps into the body: the rule is
			// unsatisfiable on consistent databases.
			return nil, true

		case len(res.Pos) == 0 && len(res.Neg) == 0 && res.groundedIn(r):
			// Order-only residue o1 ∧ ... ∧ ok over rule variables:
			// if the ground conjuncts all hold and no variables remain,
			// the rule is unsatisfiable; otherwise attach
			// ¬o1 ∨ ... ∨ ¬ok by splitting each current rule into k
			// variants.
			var next []ast.Rule
			for _, cur := range rules {
				curSet := order.NewSet(cur.Cmp...)
				if curSet.ImpliesAll(res.Cmp) {
					// The rule already forces the residue: unsatisfiable.
					continue
				}
				for _, c := range res.Cmp {
					if curSet.Implies(c.Negate()) {
						// This disjunct is already guaranteed; the split
						// collapses to the rule itself.
						next = append(next, cur)
						break
					}
				}
				if len(next) > 0 && next[len(next)-1].Equal(cur) {
					continue
				}
				for _, c := range res.Cmp {
					v := cur.Clone()
					v.Cmp = append(v.Cmp, c.Negate())
					if order.NewSet(v.Cmp...).Satisfiable() {
						next = append(next, v)
					}
				}
			}
			if len(next) == 0 {
				return nil, true
			}
			rules = next

		case len(res.Pos) == 1 && len(res.Neg) == 0 && len(res.Cmp) == 0 && res.groundedIn(r):
			// Single positive EDB atom remains: its absence is
			// guaranteed, attach it negated.
			var next []ast.Rule
			for _, cur := range rules {
				v := cur.Clone()
				if !hasNeg(v, res.Pos[0]) {
					v.Neg = append(v.Neg, res.Pos[0])
				}
				next = append(next, v)
			}
			rules = next

		case len(res.Pos) == 0 && len(res.Neg) == 1 && len(res.Cmp) == 0 && res.groundedIn(r):
			// Single negated EDB atom remains: the atom's presence is
			// guaranteed, attach it positively.
			var next []ast.Rule
			for _, cur := range rules {
				v := cur.Clone()
				if !hasPos(v, res.Neg[0]) {
					v.Pos = append(v.Pos, res.Neg[0])
				}
				next = append(next, v)
			}
			rules = next
		}
		// Residues with free variables or mixed shapes are not
		// expressible as extra literals; the per-rule method skips
		// them (precisely the information the query tree recovers).
	}
	return rules, false
}

func hasNeg(r ast.Rule, a ast.Atom) bool {
	for _, n := range r.Neg {
		if n.Equal(a) {
			return true
		}
	}
	return false
}

func hasPos(r ast.Rule, a ast.Atom) bool {
	for _, p := range r.Pos {
		if p.Equal(a) {
			return true
		}
	}
	return false
}

// Optimize applies OptimizeRule to every rule of the program — the
// [CGM88]-style per-rule semantic optimizer used as a baseline.
func Optimize(p *ast.Program, ics []ast.IC) *ast.Program {
	out := &ast.Program{Query: p.Query}
	for _, r := range p.Rules {
		rs, dropped := OptimizeRule(r, ics)
		if !dropped {
			out.Rules = append(out.Rules, rs...)
		}
	}
	return out
}
