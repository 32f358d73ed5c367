package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/cqc"
	"repro/internal/emptiness"
	"repro/internal/magic"
)

// hygiene is L5: structural checks that gate the semantic ones. It
// reports whether the program is structurally sound (no Error-severity
// hygiene finding), so Run knows whether L1–L3 may assume consistent
// arities, safe rules, and IDB-free constraint bodies.
func (l *linter) hygiene() bool {
	ok := true

	// Arity consistency across rules, constraints, and facts: the
	// first sighting of a predicate fixes its arity; later atoms that
	// disagree are flagged where they occur.
	type sighting struct {
		arity int
		at    ast.Pos
	}
	seen := map[string]sighting{}
	note := func(a ast.Atom) {
		prev, found := seen[a.Pred]
		if !found {
			seen[a.Pred] = sighting{arity: a.Arity(), at: a.At}
			return
		}
		if prev.arity != a.Arity() {
			ok = false
			l.add(Finding{Check: "L5", ID: "arity-mismatch", Severity: Error, Line: a.At.Line, Col: a.At.Col, Ref: prev.at,
				Message: fmt.Sprintf("predicate %s used with arity %d here but arity %d at %s",
					a.Pred, a.Arity(), prev.arity, prev.at)})
		}
	}
	for _, r := range l.p.Rules {
		note(r.Head)
		for _, a := range r.Pos {
			note(a)
		}
		for _, a := range r.Neg {
			note(a)
		}
	}
	for _, ic := range l.ics {
		for _, a := range ic.Pos {
			note(a)
		}
		for _, a := range ic.Neg {
			note(a)
		}
	}
	for _, f := range l.facts {
		note(f)
	}

	// Safety and singleton variables, per rule. Singleton analysis is
	// skipped for unsafe rules: the unbound variable is the real
	// defect.
	for _, r := range l.p.Rules {
		if err := r.Safe(); err != nil {
			ok = false
			l.addAt("L5", "unsafe-rule", Error, r.At, err.Error())
			continue
		}
		if vs := singletonVars(r); len(vs) > 0 {
			l.addAt("L5", "singleton-var", Warning, r.At,
				fmt.Sprintf("variable%s %s occur%s only once in this rule",
					plural(len(vs)), strings.Join(vs, ", "), singularVerb(len(vs))))
		}
		for _, a := range r.Neg {
			if l.idb[a.Pred] {
				ok = false
				l.addAt("L5", "idb-negated", Error, a.At,
					fmt.Sprintf("negated subgoal !%s applies negation to IDB predicate %s; only EDB predicates may be negated", a, a.Pred))
			}
		}
	}

	// Constraints must not mention IDB predicates — both a
	// well-formedness rule of the paper's setting and the premise that
	// makes the L1/L2 verdicts on non-initialization rules sound
	// (frozen IDB atoms are inert in the chase only because no
	// constraint can fire on them).
	for _, ic := range l.ics {
		for _, a := range append(append([]ast.Atom{}, ic.Pos...), ic.Neg...) {
			if l.idb[a.Pred] {
				ok = false
				l.addAt("L5", "idb-in-ic", Error, a.At,
					fmt.Sprintf("constraint mentions IDB predicate %s; constraint bodies must be over EDB predicates only", a.Pred))
			}
		}
	}

	// Unused EDB predicates: mentioned by the facts or the constraints
	// but never read by any rule body.
	referenced := map[string]bool{}
	for _, r := range l.p.Rules {
		for _, a := range r.Pos {
			referenced[a.Pred] = true
		}
		for _, a := range r.Neg {
			referenced[a.Pred] = true
		}
	}
	unusedAt := map[string]ast.Pos{}
	var unusedOrder []string
	noteUnused := func(a ast.Atom) {
		if l.idb[a.Pred] || referenced[a.Pred] {
			return
		}
		if _, dup := unusedAt[a.Pred]; dup {
			return
		}
		unusedAt[a.Pred] = a.At
		unusedOrder = append(unusedOrder, a.Pred)
	}
	for _, f := range l.facts {
		noteUnused(f)
	}
	for _, ic := range l.ics {
		for _, a := range ic.Pos {
			noteUnused(a)
		}
		for _, a := range ic.Neg {
			noteUnused(a)
		}
	}
	for _, pred := range unusedOrder {
		l.addAt("L5", "unused-edb", Info, unusedAt[pred],
			fmt.Sprintf("EDB predicate %s is never read by any rule body", pred))
	}
	return ok
}

// guardrails is L4: flag constraint features that move the semantic
// questions beyond the decidable fragments. Non-local order atoms make
// satisfiability undecidable (Theorem 5.3); negated EDB atoms make it
// at best semi-decidable, and non-local ones undecidable
// (Theorem 5.4).
func (l *linter) guardrails() {
	for _, ic := range l.ics {
		for _, c := range ic.Cmp {
			if !localIn(ic, c.Vars(nil)) {
				l.addAt("L4", "nonlocal-order", Warning, ic.At,
					fmt.Sprintf("order atom %s is not local (no positive atom of the constraint contains all its variables); optimization with non-local order atoms is undecidable (Theorem 5.3)", c))
			}
		}
		sawLocalNeg := false
		for _, n := range ic.Neg {
			if !localIn(ic, n.Vars(nil)) {
				l.addAt("L4", "nonlocal-negation", Warning, n.At,
					fmt.Sprintf("negated atom !%s is not local (no positive atom of the constraint contains all its variables); optimization with non-local negation is undecidable (Theorem 5.4)", n))
			} else {
				sawLocalNeg = true
			}
		}
		if sawLocalNeg {
			l.addAt("L4", "neg-edb-ic", Info, ic.At,
				"constraint has negated EDB atoms; satisfiability checks fall back to a bounded chase and may report unknown (Theorem 5.4)")
		}
	}
}

// localIn reports whether some positive atom of the constraint
// contains all the given variables (the locality condition of
// Section 4.2).
func localIn(ic ast.IC, vars []string) bool {
	for _, a := range ic.Pos {
		all := true
		for _, v := range vars {
			if !a.HasVar(v) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// unsatRules is L1: per-rule body satisfiability w.r.t. the
// constraints. Unsatisfiable is sound even for rules with IDB
// subgoals — hygiene already guaranteed the constraints never mention
// IDB predicates, so the frozen IDB atoms are inert in the chase and
// act as an arbitrary nonempty interpretation.
func (l *linter) unsatRules() {
	l.sat = make([]emptiness.Verdict, len(l.p.Rules))
	l.flagged = map[int]bool{}
	for i, r := range l.p.Rules {
		if l.ctx.Err() != nil {
			// Leave the remaining verdicts at their zero value, which
			// is Unknown — honest, and L2 treats Unknown as possibly
			// satisfiable.
			return
		}
		v, err := emptiness.RuleSatisfiableCtx(l.ctx, r, l.ics, satBudget)
		l.sat[i] = v
		switch v {
		case emptiness.Unsatisfiable:
			l.flagged[i] = true
			l.addAt("L1", "unsat-body", Error, r.At,
				fmt.Sprintf("rule body is unsatisfiable with respect to the integrity constraints; %s can never produce a fact and the rule may be deleted", r.Head.Pred))
		case emptiness.Unknown:
			msg := "satisfiability of the rule body could not be decided within budget"
			if err != nil {
				msg += " (" + err.Error() + ")"
			}
			l.addAt("L1", "unsat-unknown", Info, r.At, msg)
		}
	}
}

// emptyAndDead is L2: the initialization-rule emptiness argument of
// Proposition 5.2 lifted to a per-predicate fixpoint, plus query-tree
// style reachability pruning.
//
// A predicate is possibly nonempty iff some rule for it has a body
// that is not provably unsatisfiable and reads only possibly-nonempty
// IDB predicates. Unknown verdicts count as satisfiable, so a
// predicate left outside the fixpoint is provably empty on every
// database consistent with the constraints (by induction on a minimal
// derivation: its first step would use a rule whose IDB subgoals are
// all nonempty, and every such rule is unsatisfiable).
func (l *linter) emptyAndDead() {
	possibly := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for i, r := range l.p.Rules {
			if possibly[r.Head.Pred] || l.sat[i] == emptiness.Unsatisfiable {
				continue
			}
			fires := true
			for _, a := range r.Pos {
				if l.idb[a.Pred] && !possibly[a.Pred] {
					fires = false
					break
				}
			}
			if fires {
				possibly[r.Head.Pred] = true
				changed = true
			}
		}
	}

	// Empty predicates, one finding per predicate at its first rule.
	reportedEmpty := map[string]bool{}
	for _, r := range l.p.Rules {
		pred := r.Head.Pred
		if possibly[pred] || reportedEmpty[pred] {
			continue
		}
		reportedEmpty[pred] = true
		if pred == l.p.Query {
			l.addAt("L2", "query-empty", Error, r.At,
				fmt.Sprintf("query predicate %s is empty on every database consistent with the constraints; the query always returns no answers (Proposition 5.2)", pred))
		} else {
			l.addAt("L2", "empty-predicate", Warning, r.At,
				fmt.Sprintf("IDB predicate %s derives no facts on any database consistent with the constraints (Proposition 5.2)", pred))
		}
	}
	if l.p.Query != "" && !l.idb[l.p.Query] {
		l.add(Finding{Check: "L2", ID: "query-empty", Severity: Error,
			Message: fmt.Sprintf("query predicate %s has no rules and denotes the empty relation", l.p.Query)})
	}

	// Dead rules: not themselves unsatisfiable, but reading a provably
	// empty IDB predicate, so they can never fire and deleting them
	// changes no answers at all.
	for i, r := range l.p.Rules {
		if l.flagged[i] {
			continue
		}
		for _, a := range r.Pos {
			if l.idb[a.Pred] && !possibly[a.Pred] {
				l.flagged[i] = true
				l.addAt("L2", "dead-rule", Warning, r.At,
					fmt.Sprintf("rule reads IDB predicate %s, which is provably empty; the rule can never fire and may be deleted", a.Pred))
				break
			}
		}
	}

	// Unreachable rules: predicates the query predicate does not
	// depend on, directly or transitively. Deleting them preserves the
	// query answers (though not the other IDB relations), so the
	// finding is advisory.
	if l.p.Query == "" || !l.idb[l.p.Query] {
		return
	}
	reach := map[string]bool{l.p.Query: true}
	for changed := true; changed; {
		changed = false
		for _, r := range l.p.Rules {
			if !reach[r.Head.Pred] {
				continue
			}
			for _, a := range r.Pos {
				if l.idb[a.Pred] && !reach[a.Pred] {
					reach[a.Pred] = true
					changed = true
				}
			}
		}
	}
	for i, r := range l.p.Rules {
		if l.flagged[i] || reach[r.Head.Pred] {
			continue
		}
		l.addAt("L2", "unreachable-rule", Info, r.At,
			fmt.Sprintf("rule defines %s, which the query %s does not depend on; deleting it does not change the query answers", r.Head.Pred, l.p.Query))
	}
}

// subsumedRules is L3: pairwise containment between sibling rules for
// the same head predicate, using the sound order-aware containment
// test. A rule contained in an unflagged sibling is redundant: every
// fact it derives, the sibling derives too. The subsumer must itself
// be unflagged — otherwise two equivalent rules would both be reported
// deletable, which is unsound to act on.
func (l *linter) subsumedRules() {
	byPred := map[string][]int{}
	var preds []string
	for i, r := range l.p.Rules {
		if _, ok := byPred[r.Head.Pred]; !ok {
			preds = append(preds, r.Head.Pred)
		}
		byPred[r.Head.Pred] = append(byPred[r.Head.Pred], i)
	}
	sort.Strings(preds)
	subsumed := map[int]bool{}
	eligible := func(i int) bool {
		r := l.p.Rules[i]
		return !r.HasNeg() && len(r.Pos)+len(r.Cmp) <= maxSubsumptionAtoms
	}
	for _, pred := range preds {
		idxs := byPred[pred]
		if len(idxs) < 2 || len(idxs) > maxSubsumptionRules {
			continue
		}
		// Walk candidates from last to first so that among duplicated
		// rules the earliest survives and the later copies are the
		// ones reported.
		for k := len(idxs) - 1; k >= 0; k-- {
			i := idxs[k]
			if l.ctx.Err() != nil {
				return
			}
			if l.flagged[i] || !eligible(i) {
				continue
			}
			for _, j := range idxs {
				if j == i || l.flagged[j] || subsumed[j] || !eligible(j) {
					continue
				}
				ok, err := cqc.ContainedOrder(l.p.Rules[i], l.p.Rules[j])
				if err != nil || !ok {
					continue
				}
				subsumed[i] = true
				l.flagged[i] = true
				l.addAt("L3", "subsumed-rule", Warning, l.p.Rules[i].At,
					fmt.Sprintf("rule is subsumed by the rule for %s at %s and may be deleted", pred, l.p.Rules[j].At))
				break
			}
		}
	}
}

// goalDirected is L6: a goal that binds arguments — a point query
// like '?- path(a, Y).' — asks for a fraction of the query relation.
// The engine evaluates it goal-directed through the magic-sets rewrite
// wherever that applies; when the rewrite is structurally inapplicable
// the check warns, citing the goal's adornment, because the engine
// then materializes the whole relation and filters afterwards.
func (l *linter) goalDirected() {
	if len(l.p.Goal) == 0 {
		return
	}
	pat := magic.GoalPattern(l.p.Goal)
	if !pat.HasBound() {
		return
	}
	if _, err := magic.Rewrite(l.p); err != nil {
		l.add(Finding{Check: "L6", ID: "bound-query-no-magic", Severity: Warning,
			Message: fmt.Sprintf("query %s binds %d of %d argument(s) (adornment %s) but the magic-sets rewrite does not apply (%v); the full %s relation is materialized and the goal filtered after the fact",
				l.p.GoalAtom(), len(pat.Bound()), len(pat), magic.AdornedName(l.p.Query, pat), err, l.p.Query)})
	}
}

// boundedRecursion is L7: bounded-recursion advisories. The
// boundedness analyzer's verdict per self-recursive predicate is
// three-valued:
//
//   - bounded: the k-fold unfolding is contained in the (k-1)-fold
//     unfolding, so the fixpoint is equivalent to a flat union of
//     conjunctive queries. The engine compiles the recursion away, so
//     there is nothing to advise.
//   - not-bounded-within-budget: the unfolding ladder ran to its
//     depth/size budget without a containment witness. An Info, so a
//     genuinely recursive program (transitive closure) is never
//     misreported as a defect but the exhausted budget stays visible.
//   - unknown: the predicate is outside the procedure's scope (mutual
//     recursion, negated subgoals). An Info citing the reason.
func (l *linter) boundedRecursion() {
	ruleAt := func(pred string) ast.Pos {
		for _, r := range l.p.Rules {
			if r.Head.Pred == pred {
				return r.At
			}
		}
		return ast.Pos{}
	}
	for _, a := range bounded.Analyze(l.p) {
		switch a.Verdict {
		case bounded.NotWithinBudget:
			l.addAt("L7", "boundedness-budget", Info, ruleAt(a.Pred),
				fmt.Sprintf("recursion of %s is not provably bounded within budget (%s); the fixpoint is evaluated as written",
					a.Pred, a.Reason))
		case bounded.Unknown:
			l.addAt("L7", "boundedness-unknown", Info, ruleAt(a.Pred),
				fmt.Sprintf("boundedness of %s is unknown: %s", a.Pred, a.Reason))
		}
	}
}

// singletonVars returns, in first-occurrence order, the variables that
// occur exactly once across the rule's head and body.
func singletonVars(r ast.Rule) []string {
	counts := map[string]int{}
	var ord []string
	note := func(t ast.Term) {
		if !t.IsVar() {
			return
		}
		if counts[t.Name] == 0 {
			ord = append(ord, t.Name)
		}
		counts[t.Name]++
	}
	for _, t := range r.Head.Args {
		note(t)
	}
	for _, a := range r.Pos {
		for _, t := range a.Args {
			note(t)
		}
	}
	for _, a := range r.Neg {
		for _, t := range a.Args {
			note(t)
		}
	}
	for _, c := range r.Cmp {
		note(c.Left)
		note(c.Right)
	}
	var out []string
	for _, v := range ord {
		if counts[v] == 1 {
			out = append(out, v)
		}
	}
	return out
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

func singularVerb(n int) string {
	if n == 1 {
		return "s"
	}
	return ""
}
