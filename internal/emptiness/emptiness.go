// Package emptiness decides satisfiability and emptiness questions
// from Section 5 of the paper:
//
//   - Proposition 5.2: a program is empty (no IDB predicate
//     satisfiable) iff its initialization rules are all unsatisfiable,
//     so emptiness reduces to conjunctive-query satisfiability.
//   - Theorem 5.2(1): for programs and constraints without order atoms
//     in the constraints, initialization-rule satisfiability is decided
//     by freezing the body to its canonical database (NP).
//   - Theorem 5.2(3): with order atoms in the rule and/or {θ}-ic's, the
//     decision enumerates the linearizations of the rule's terms (Π2p).
//   - Theorem 5.2(2,4) / Theorem 5.4: with negated atoms in the
//     constraints the problem is only semi-decidable; a budget-bounded
//     chase returns an explicit Unknown when the budget is exhausted.
package emptiness

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/order"
	"repro/internal/unify"
)

// Verdict mirrors chase.Verdict for the satisfiability questions.
type Verdict = chase.Verdict

const (
	Unknown       = chase.Unknown
	Satisfiable   = chase.Consistent
	Unsatisfiable = chase.Inconsistent
)

// Options configures the decision procedures.
type Options struct {
	// ChaseSteps bounds the chase for {¬}-constraints (default 10000).
	ChaseSteps int
	// MaxLinearizations bounds the Π2p enumeration (default 100000);
	// exceeding it yields Unknown.
	MaxLinearizations int
}

func (o *Options) defaults() {
	if o.ChaseSteps == 0 {
		o.ChaseSteps = 10000
	}
	if o.MaxLinearizations == 0 {
		o.MaxLinearizations = 100000
	}
}

// RuleSatisfiableCtx decides whether a single rule's body is
// satisfiable with respect to the constraints: is there a database
// consistent with ics on which the body has at least one match? This
// is the conjunctive-query satisfiability at the heart of Proposition
// 5.2. Cancellation or deadline expiry of ctx aborts the decision at
// the next check boundary with an Unknown verdict, the same honest
// outcome as exhausting an explicit budget.
func RuleSatisfiableCtx(ctx context.Context, r ast.Rule, ics []ast.IC, opts Options) (Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.defaults()
	// Fast path: the rule's own order atoms must be satisfiable.
	ruleSet := order.NewSet(r.Cmp...)
	if !ruleSet.Satisfiable() {
		return Unsatisfiable, nil
	}
	hasNegIC := false
	for _, ic := range ics {
		if len(ic.Neg) > 0 {
			hasNegIC = true
		}
	}
	hasOrder := len(r.Cmp) > 0
	for _, ic := range ics {
		if len(ic.Cmp) > 0 {
			hasOrder = true
		}
	}

	switch {
	case !hasOrder && !hasNegIC && len(r.Neg) == 0:
		// NP case (Theorem 5.2(1) without rule negation): freeze the
		// body with distinct constants and check the canonical
		// database directly.
		frozen, _ := unify.Freeze(r.Pos)
		ok, err := chase.IsConsistent(frozen, ics)
		if err != nil {
			return Unknown, err
		}
		if ok {
			return Satisfiable, nil
		}
		return Unsatisfiable, nil

	case !hasOrder:
		// Negation without order atoms (Theorem 5.2(2,4)): bounded
		// chase on the skolem-frozen body, honest about giving up. No
		// comparison is ever evaluated here, so the canonical freeze
		// with fresh distinct constants is most general.
		return chaseSatisfiable(ctx, r, ics, opts)

	default:
		// Order atoms present (Theorem 5.2(3)): enumerate
		// linearizations; the body is satisfiable iff some
		// linearization consistent with the rule's order atoms yields
		// a consistent frozen database. Negated atoms (in the rule or
		// the constraints) are handled by a budget-bounded chase per
		// linearization.
		return linearizationSatisfiable(ctx, r, ics, opts)
	}
}

// linearizationSatisfiable enumerates total preorders of the rule's
// terms consistent with its order atoms; for each, it freezes the
// body respecting the preorder and checks consistency (constraints may
// carry order atoms, which evaluate on the frozen order). The preorder
// domain includes every constant the constraints mention: the chase
// outcome on a frozen embedding depends only on the embedding's order
// type relative to those constants, so enumerating the extended set is
// complete — without them, the arbitrary values freezeOrdered picks
// could systematically trip (or dodge) a comparison against a constant
// and turn into a wrong verdict.
func linearizationSatisfiable(ctx context.Context, r ast.Rule, ics []ast.IC, opts Options) (Verdict, error) {
	terms := relevantTerms(r, ics)
	base := order.NewSet(r.Cmp...)
	count := 0
	sat := false
	exceeded := false
	unknown := false
	var unknownErr error
	order.Linearizations(terms, base, func(groups [][]ast.Term) bool {
		count++
		if count > opts.MaxLinearizations || (count%64 == 0 && ctx.Err() != nil) {
			exceeded = true
			return false
		}
		frozen, vals, ok := freezeOrdered(r.Pos, groups)
		if !ok {
			// Not refuted, only not realized: the verdict may no longer
			// be Unsatisfiable.
			unknown = true
			if unknownErr == nil {
				unknownErr = fmt.Errorf("emptiness: a linearization has no realization among the constants")
			}
			return true
		}
		forbidden, err := groundNegated(r.Neg, vals)
		if err != nil {
			unknown, unknownErr = true, err
			return false
		}
		for _, f := range frozen {
			for _, g := range forbidden {
				if f.Equal(g) {
					// The embedding itself contains a negated subgoal:
					// refuted, not skipped.
					return true
				}
			}
		}
		res := chase.RunCtx(ctx, frozen, ics, chase.Options{MaxSteps: opts.ChaseSteps, Forbidden: forbidden})
		switch res.Verdict {
		case chase.Consistent:
			sat = true
			return false
		case chase.Unknown:
			unknown = true
		}
		return true
	})
	switch {
	case sat:
		return Satisfiable, nil
	case exceeded:
		return Unknown, fmt.Errorf("emptiness: linearization budget exceeded")
	case unknown:
		if unknownErr != nil {
			return Unknown, unknownErr
		}
		return Unknown, fmt.Errorf("emptiness: chase budget exceeded on some linearization")
	default:
		return Unsatisfiable, nil
	}
}

// relevantTerms returns the rule's body terms extended with every
// constant appearing in the constraints or the rule's negated
// subgoals; see linearizationSatisfiable for why these constants must
// participate in the preorder enumeration.
func relevantTerms(r ast.Rule, ics []ast.IC) []ast.Term {
	terms := bodyTerms(r)
	seen := map[string]bool{}
	for _, t := range terms {
		seen[t.Key()] = true
	}
	addConst := func(t ast.Term) {
		if t.IsConst() && !seen[t.Key()] {
			seen[t.Key()] = true
			terms = append(terms, t)
		}
	}
	for _, n := range r.Neg {
		for _, t := range n.Args {
			addConst(t)
		}
	}
	for _, ic := range ics {
		for _, a := range ic.Pos {
			for _, t := range a.Args {
				addConst(t)
			}
		}
		for _, a := range ic.Neg {
			for _, t := range a.Args {
				addConst(t)
			}
		}
		for _, c := range ic.Cmp {
			addConst(c.Left)
			addConst(c.Right)
		}
	}
	return terms
}

// groundNegated instantiates the rule's negated subgoals with the
// frozen values; safety requires their variables to occur in positive
// subgoals, so a leftover variable is an error, not a guess.
func groundNegated(neg []ast.Atom, vals map[string]ast.Term) ([]ast.Atom, error) {
	var out []ast.Atom
	for _, n := range neg {
		g := n.Clone()
		for i, t := range g.Args {
			if v, ok := vals[t.Key()]; ok {
				g.Args[i] = v
			}
		}
		if !g.Ground() {
			return nil, fmt.Errorf("emptiness: negated atom %s has variables outside positive subgoals", n)
		}
		out = append(out, g)
	}
	return out, nil
}

// chaseSatisfiable freezes the body with fresh distinct constants and
// chases the result; negated body atoms become forbidden facts. It is
// only reached when no order atom appears in the rule or the
// constraints, so no comparison ever evaluates on the skolem
// constants and the canonical freeze is most general.
func chaseSatisfiable(ctx context.Context, r ast.Rule, ics []ast.IC, opts Options) (Verdict, error) {
	frozen, sub := unify.Freeze(r.Pos)
	var forbidden []ast.Atom
	for _, n := range r.Neg {
		g := n.Clone()
		for i, t := range g.Args {
			if t.IsVar() {
				if c, ok := sub[t.Name]; ok {
					g.Args[i] = c
				}
			}
		}
		if !g.Ground() {
			return Unknown, fmt.Errorf("emptiness: negated atom %s has variables outside positive subgoals", n)
		}
		forbidden = append(forbidden, g)
		// The frozen positive atoms must not already contain it.
		for _, f := range frozen {
			if f.Equal(g) {
				return Unsatisfiable, nil
			}
		}
	}
	res := chase.RunCtx(ctx, frozen, ics, chase.Options{MaxSteps: opts.ChaseSteps, Forbidden: forbidden})
	return res.Verdict, nil
}

// EmptyCtx decides program emptiness via Proposition 5.2: the program
// is empty iff every initialization rule is unsatisfiable. decided is
// false when some rule's satisfiability could not be settled within
// budget and no rule was found satisfiable. Cancellation of ctx
// mid-way leaves the undecided rules Unknown, so the result degrades
// to decided == false rather than an unsound emptiness claim.
func EmptyCtx(ctx context.Context, p *ast.Program, ics []ast.IC, opts Options) (empty, decided bool, err error) {
	idb := p.IDB()
	sawUnknown := false
	for _, r := range p.Rules {
		if !r.IsInit(idb) {
			continue
		}
		v, verr := RuleSatisfiableCtx(ctx, r, ics, opts)
		switch v {
		case Satisfiable:
			// Some initialization rule fires: the program is nonempty.
			return false, true, nil
		case Unknown:
			sawUnknown = true
		case Unsatisfiable:
			// keep checking the remaining rules
		}
		if verr != nil && v != Unknown {
			return false, false, verr
		}
	}
	if sawUnknown {
		return false, false, nil
	}
	return true, true, nil
}

// bodyTerms collects the distinct terms of the rule's positive
// subgoals and order atoms.
func bodyTerms(r ast.Rule) []ast.Term {
	seen := map[string]bool{}
	var out []ast.Term
	add := func(t ast.Term) {
		if !seen[t.Key()] {
			seen[t.Key()] = true
			out = append(out, t)
		}
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

// freezeOrdered freezes the atoms to constants realizing a
// linearization, given as its ascending groups of equal terms: a group
// holding a constant takes that constant, and each run of variable-only
// groups takes values strictly between its neighbouring constant
// groups, of their kind — numbers below a number or below the first
// string, strings above a string. It also returns the term-key → value
// assignment so callers can ground atoms outside the positive body
// (negated subgoals) consistently. It fails when the values it picks
// are not strictly ascending: a run squeezed between two strings with
// nothing between them, or between two adjacent floats.
func freezeOrdered(atoms []ast.Atom, groups [][]ast.Term) ([]ast.Atom, map[string]ast.Term, bool) {
	assigned := make([]ast.Term, len(groups)) // the zero Term is a variable: unassigned
	for gi, g := range groups {
		for _, t := range g {
			if t.IsConst() {
				assigned[gi] = t
				break
			}
		}
	}
	for lo := -1; lo < len(groups); {
		hi := lo + 1
		for hi < len(groups) && assigned[hi].IsVar() {
			hi++
		}
		var below, above *ast.Term
		if lo >= 0 {
			below = &assigned[lo]
		}
		if hi < len(groups) {
			above = &assigned[hi]
		}
		between(assigned[lo+1:hi], below, above)
		lo = hi
	}
	for gi := 0; gi+1 < len(assigned); gi++ {
		if assigned[gi].Compare(assigned[gi+1]) >= 0 {
			return nil, nil, false
		}
	}
	vals := map[string]ast.Term{}
	for gi, g := range groups {
		for _, t := range g {
			vals[t.Key()] = assigned[gi]
		}
	}
	// Materialize.
	out := make([]ast.Atom, len(atoms))
	for i, a := range atoms {
		g := a.Clone()
		for j, t := range g.Args {
			if v, ok := vals[t.Key()]; ok {
				g.Args[j] = v
			}
		}
		if !g.Ground() {
			return nil, nil, false
		}
		out[i] = g
	}
	return out, vals, true
}

// between fills run with ascending constants strictly between below
// and above (nil: unbounded). Above a string only strings fit: the
// string extended by NULs is the least string above it. Otherwise the
// run is numeric, spaced by at least 1 and by the magnitude of its
// bound so that it stays distinct in floating point.
func between(run []ast.Term, below, above *ast.Term) {
	m := float64(len(run))
	for j := range run {
		k := float64(j + 1)
		switch {
		case below != nil && below.Kind == ast.Str:
			run[j] = ast.S(below.Name + strings.Repeat("\x00", j+1))
		case below != nil && above != nil && above.Kind == ast.Num:
			run[j] = ast.N(below.Val + (above.Val-below.Val)*k/(m+1))
		case below != nil:
			run[j] = ast.N(below.Val + k*max(1, math.Abs(below.Val)))
		case above != nil && above.Kind == ast.Num:
			run[j] = ast.N(above.Val - (m+1-k)*max(1, math.Abs(above.Val)))
		default:
			run[j] = ast.N(k)
		}
	}
}
