package rewrite

import "repro/internal/ast"

// ICPlan classifies one integrity constraint for the query-tree
// algorithm:
//
//   - Pure constraints (no order atoms, no negated atoms) prune via
//     inconsistent adornments (Section 4.1).
//   - Local order atoms and local negated EDB atoms are anchored to a
//     positive atom and enforced at mapping time after the
//     RewriteLocalPlanned case split (Section 4.2, Theorem 4.2).
//   - Non-local order atoms are carried as a residue: when the
//     constraint's EDB atoms map fully within a rule, the negation of
//     the instantiated residue is attached to that rule (the
//     quasi-local generalization sketched at the end of Section 4.2 and
//     exercised by Example 3.1).
//   - A non-local negated EDB atom makes the constraint Unsupported —
//     the undecidable territory of Theorem 5.4; such constraints are
//     skipped (soundly: skipping an ic only forgoes optimization).
type ICPlan struct {
	// Index is the constraint's position in the input list.
	Index int
	IC    ast.IC
	// Pairs anchors every local order atom and local negated atom.
	Pairs []LocalPair
	// ResidueCmps are the non-local order atoms, to be handled by
	// residue attachment. Empty for prune-mode constraints.
	ResidueCmps []ast.Cmp
	// Unsupported marks constraints with a non-local negated atom.
	Unsupported bool
	// Reason explains why the constraint is unsupported.
	Reason string
}

// PruneMode reports whether a fully-mapped constraint makes a
// derivation inconsistent outright (no residue remains).
func (p ICPlan) PruneMode() bool { return len(p.ResidueCmps) == 0 }

// VisibleVars appends to dst, without duplicates, the constraint
// variables a triplet whose unmapped atoms are unmapped must keep
// visible: those of the unmapped atoms and of the residue order atoms.
func (p ICPlan) VisibleVars(dst []string, unmapped []int) []string {
	for _, ui := range unmapped {
		dst = p.IC.Pos[ui].Vars(dst)
	}
	for _, c := range p.ResidueCmps {
		dst = c.Vars(dst)
	}
	return dst
}

// PlanICs classifies every constraint. It never fails: constraints
// that cannot be handled are returned with Unsupported set.
func PlanICs(ics []ast.IC) []ICPlan {
	plans := make([]ICPlan, len(ics))
	for i, ic := range ics {
		plan := ICPlan{Index: i, IC: ic}
		for ci := range ic.Cmp {
			c := ic.Cmp[ci]
			if a, ok := anchorFor(ic, c.Vars(nil)); ok {
				cc := c
				plan.Pairs = append(plan.Pairs, LocalPair{ICIndex: i, Anchor: a, OrderAtom: &cc})
			} else {
				plan.ResidueCmps = append(plan.ResidueCmps, c)
			}
		}
		for ni := range ic.Neg {
			nAtom := ic.Neg[ni]
			if a, ok := anchorFor(ic, nAtom.Vars(nil)); ok {
				na := nAtom.Clone()
				plan.Pairs = append(plan.Pairs, LocalPair{ICIndex: i, Anchor: a, NegEDB: &na})
			} else {
				plan.Unsupported = true
				plan.Reason = "negated atom !" + nAtom.String() + " is not local"
			}
		}
		if len(ic.Pos) == 0 {
			plan.Unsupported = true
			plan.Reason = "constraint has no positive atoms"
		}
		plans[i] = plan
	}
	return plans
}
