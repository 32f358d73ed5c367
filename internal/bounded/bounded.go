// Package bounded is a static boundedness analyzer: it detects
// recursive predicates whose fixpoint is reached after a constant
// number of iterations on every database, and compiles their recursion
// away into an equivalent finite union of conjunctive queries.
//
// The test is the classical unfolding ladder. For a self-recursive
// predicate p, let A_1 be the union of p's exit rules (the rules with
// no p-subgoal) and let A_{k+1} extend A_1 with every recursive rule of
// p whose p-subgoals have each been resolved against a disjunct of A_k
// (renamed apart, arguments unified). A_k is exactly the set of
// derivations of p that use recursion depth < k, so the chain
// A_1 ⊑ A_2 ⊑ ... converges to p's fixpoint. If some step closes —
// A_{k+1} ⊑ A_k as a union of conjunctive queries, decided by the
// containment machinery of internal/cqc (Sagiv–Yannakakis
// disjunct-wise CQ containment; the order-atom-aware sound variant
// when rules carry comparisons) — then by monotonicity every deeper
// unfolding collapses into A_k too, and A_k IS the fixpoint: p can be
// evaluated as a flat union of joins with no iteration at all.
//
// Boundedness is undecidable in general (already for linear programs),
// so the analysis is three-valued and budgeted: Bounded carries the
// witness depth and the equivalent UCQ, NotWithinBudget means no
// containment witness was found before the depth/size budgets ran out
// (the honest verdict for genuinely unbounded programs such as
// transitive closure), and Unknown marks predicates the procedure does
// not cover (mutual recursion, negated subgoals). Structural
// pre-checks — the linear/piecewise-linear classification and a
// projected-growth bound for nonlinear rules — bail out before any
// hopeless containment call is made.
package bounded

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/cqc"
	"repro/internal/unify"
)

// ErrNotBounded is wrapped by Rewrite when no predicate of the program
// could be proven bounded; callers fall back to ordinary fixpoint
// evaluation with errors.Is, mirroring magic.ErrNotApplicable.
var ErrNotBounded = errors.New("recursion not provably bounded")

// Options has no field: the analysis budgets are the constants below.
// Rewrite still takes it only because the benchmark harness passes
// bounded.Options{}.
type Options struct{}

// The analysis budgets. Boundedness is undecidable, so these are
// semantic bounds, not tuning parameters: raising them would make the
// analyzer prove MORE programs bounded (never different answers).
const (
	// maxDepth is the largest unfolding depth k for which the witness
	// containment A_{k+1} ⊑ A_k is attempted.
	maxDepth = 3
	// maxDisjuncts caps the number of conjunctive queries in any A_k;
	// past it the verdict is NotWithinBudget.
	maxDisjuncts = 48
	// maxBodyAtoms caps the positive body length of an expanded
	// disjunct; past it the verdict is NotWithinBudget.
	maxBodyAtoms = 12
)

// Verdict is the three-valued outcome of the analysis for one
// predicate. Only Bounded licenses a rewrite; the other two differ in
// honesty, not effect: NotWithinBudget means the procedure ran and
// found no witness, Unknown means it never applied.
type Verdict int

const (
	// Unknown: the predicate is outside the procedure's scope
	// (mutual recursion, negated subgoals). Reason says why.
	Unknown Verdict = iota
	// NotWithinBudget: the unfolding ladder was built but no
	// containment witness A_{k+1} ⊑ A_k appeared within the budgets.
	// The predicate may still be bounded at a greater depth — or
	// genuinely unbounded, which this verdict can never distinguish.
	NotWithinBudget
	// Bounded: A_{Depth+1} ⊑ A_{Depth} holds; Disjuncts is the
	// equivalent non-recursive program for the predicate.
	Bounded
)

func (v Verdict) String() string {
	switch v {
	case Bounded:
		return "bounded"
	case NotWithinBudget:
		return "not-bounded-within-budget"
	default:
		return "unknown"
	}
}

// Analysis is the per-predicate result.
type Analysis struct {
	// Pred is the analyzed self-recursive predicate.
	Pred string
	// Verdict is the three-valued outcome.
	Verdict Verdict
	// Depth is the witness unfolding depth for Bounded (A_{Depth+1} ⊑
	// A_{Depth}), or the deepest level tried for NotWithinBudget.
	Depth int
	// Linear reports that every recursive rule has exactly one
	// p-subgoal (piecewise-linear recursion); nonlinear rules multiply
	// the ladder combinatorially.
	Linear bool
	// Reason explains Unknown and NotWithinBudget verdicts.
	Reason string
	// Disjuncts is the equivalent union of conjunctive queries when
	// Verdict is Bounded: non-recursive rules for Pred whose
	// evaluation yields exactly Pred's fixpoint.
	Disjuncts []ast.Rule
}

// Result is the outcome of Rewrite.
type Result struct {
	// Program is the rewritten program: every Bounded predicate's
	// rules replaced by its Disjuncts. Nil when Rewrite returned
	// ErrNotBounded.
	Program *ast.Program
	// Analyses holds one entry per self-recursive predicate analyzed,
	// sorted by predicate name, whatever the verdict — Rewrite returns
	// it alongside ErrNotBounded so callers can report why the
	// rewrite did not apply.
	Analyses []Analysis
	// Eliminated lists the predicates whose recursion was compiled
	// away, sorted.
	Eliminated []string
}

// Analyze runs the boundedness analysis on every self-recursive
// predicate of the program and returns the per-predicate verdicts
// sorted by predicate name. It never fails: out-of-scope predicates
// get verdict Unknown.
func Analyze(p *ast.Program) []Analysis {
	rec := p.Recursion()
	var preds []string
	for pred := range rec.Self {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	out := make([]Analysis, 0, len(preds))
	for _, pred := range preds {
		out = append(out, analyzePred(p, pred, rec))
	}
	return out
}

// Rewrite replaces every provably bounded predicate's rules with the
// equivalent non-recursive union of conjunctive queries and returns
// the rewritten program (the input is never mutated). When no
// predicate is bounded it returns an error wrapping ErrNotBounded —
// with the Result still carrying the per-predicate Analyses, so the
// caller can report the honest verdicts.
func Rewrite(p *ast.Program, _ Options) (*Result, error) {
	res := &Result{Analyses: Analyze(p)}
	byPred := map[string][]ast.Rule{}
	for _, a := range res.Analyses {
		// A predicate with no exit rules is bounded with an EMPTY
		// witness UCQ, but rewriting it would delete its last rule and
		// flip it from IDB to EDB classification — unshadowing any
		// same-named facts in the database and changing answers. Leave
		// it alone; the verdict still reaches lint.
		if a.Verdict == Bounded && len(a.Disjuncts) > 0 {
			res.Eliminated = append(res.Eliminated, a.Pred)
			byPred[a.Pred] = a.Disjuncts
		}
	}
	if len(byPred) == 0 {
		if len(res.Analyses) == 0 {
			return res, fmt.Errorf("%w: no self-recursive predicates", ErrNotBounded)
		}
		return res, fmt.Errorf("%w: %s", ErrNotBounded, summarize(res.Analyses))
	}
	out := &ast.Program{Query: p.Query}
	if p.Goal != nil {
		out.Goal = append([]ast.Term(nil), p.Goal...)
	}
	// Splice each bounded predicate's UCQ where its first rule stood;
	// its remaining rules are dropped.
	done := map[string]bool{}
	for _, r := range p.Rules {
		disj, bounded := byPred[r.Head.Pred]
		switch {
		case !bounded:
			out.Rules = append(out.Rules, r.Clone())
		case !done[r.Head.Pred]:
			done[r.Head.Pred] = true
			for _, d := range disj {
				out.Rules = append(out.Rules, d.Clone())
			}
		}
	}
	res.Program = out
	return res, nil
}

// summarize compresses the non-bounded verdicts into one error detail.
func summarize(as []Analysis) string {
	s := ""
	for i, a := range as {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%s: %s (%s)", a.Pred, a.Verdict, a.Reason)
	}
	return s
}

// analyzePred runs the scope checks, structural pre-checks, and the
// unfolding ladder for one self-recursive predicate.
func analyzePred(p *ast.Program, pred string, recursion *ast.Recursion) Analysis {
	res := Analysis{Pred: pred, Linear: true}
	var exit, rec []ast.Rule
	ren := ast.NewRenamer()
	for _, r := range p.Rules {
		if r.Head.Pred != pred {
			continue
		}
		if r.HasNeg() {
			res.Reason = "rules carry negated subgoals, which the containment procedure does not cover"
			return res
		}
		ren.Avoid(r.Vars()...)
		n := 0
		for _, a := range r.Pos {
			switch {
			case a.Pred == pred:
				n++
			case recursion.Same(a.Pred, pred):
				res.Reason = fmt.Sprintf("mutually recursive with %s; only self-recursion is analyzed", a.Pred)
				return res
			}
		}
		if n == 0 {
			exit = append(exit, r.Clone())
		} else {
			rec = append(rec, r.Clone())
			if n > 1 {
				res.Linear = false
			}
		}
	}

	// Structural pre-check: project the ladder's growth before paying
	// for expansion or containment. Each level has at most |exit| +
	// Σ_r |A_k|^(p-subgoals of r) disjuncts; if depth 2 already
	// overflows the budget for a nonlinear program, no containment
	// call can ever run to completion.
	if projected := projectGrowth(len(exit), rec, pred); projected > maxDisjuncts {
		res.Verdict = NotWithinBudget
		res.Depth = 1
		res.Reason = fmt.Sprintf("projected %d disjuncts at unfolding depth 2 exceeds the %d-disjunct budget", projected, maxDisjuncts)
		return res
	}

	prev := dedupe(exit, nil)
	if len(prev) > maxDisjuncts {
		res.Verdict = NotWithinBudget
		res.Depth = 1
		res.Reason = fmt.Sprintf("%d exit disjuncts exceed the %d-disjunct budget", len(prev), maxDisjuncts)
		return res
	}
	for k := 1; k <= maxDepth; k++ {
		next, grew, ok := unfoldLevel(pred, exit, rec, prev, ren)
		if !ok {
			res.Verdict = NotWithinBudget
			res.Depth = k
			res.Reason = fmt.Sprintf("unfolding depth %d exceeds the disjunct/body budget (%d disjuncts, %d atoms)", k+1, maxDisjuncts, maxBodyAtoms)
			return res
		}
		// Syntactic fixpoint: the level added no new disjunct shape, so
		// A_{k+1} ⊑ A_k holds with no containment search at all.
		// Otherwise only the genuinely new disjuncts need the
		// homomorphism test — the carried-over ones are contained in
		// themselves.
		if cqc.UCQContained(grew, prev) {
			if err := safeDisjuncts(prev); err != nil {
				res.Reason = fmt.Sprintf("witness UCQ at depth %d is unsafe (%v)", k, err)
				return res
			}
			res.Verdict = Bounded
			res.Depth = k
			res.Disjuncts = prev
			return res
		}
		prev = next
	}
	res.Verdict = NotWithinBudget
	res.Depth = maxDepth
	res.Reason = fmt.Sprintf("no containment witness up to unfolding depth %d", maxDepth)
	return res
}

// projectGrowth estimates |A_2| without expanding: exit disjuncts plus
// one expansion per recursive rule and per way of choosing an exit
// disjunct for each of its p-subgoals.
func projectGrowth(exitN int, rec []ast.Rule, pred string) int {
	total := exitN
	for _, r := range rec {
		ways := 1
		for _, a := range r.Pos {
			if a.Pred == pred {
				ways *= exitN
				if ways > 1<<16 {
					return 1 << 16
				}
			}
		}
		total += ways
		if total > 1<<16 {
			return 1 << 16
		}
	}
	return total
}

// unfoldLevel computes A_{k+1} from A_k (prev): the exit disjuncts
// plus every resolution of a recursive rule against prev. It returns
// the deduplicated next level, the disjuncts of that level that are
// not already in prev (the only ones whose containment is in
// question), and ok=false when a budget is exceeded.
func unfoldLevel(pred string, exit, rec, prev []ast.Rule, ren *ast.Renamer) (next, grew []ast.Rule, ok bool) {
	keys := map[string]bool{}
	next = dedupe(exit, keys)
	prevKeys := map[string]bool{}
	for _, d := range prev {
		prevKeys[d.CanonicalString()] = true
	}
	for _, r := range rec {
		var occ []int
		for i, a := range r.Pos {
			if a.Pred == pred {
				occ = append(occ, i)
			}
		}
		choice := make([]ast.Rule, len(occ))
		var walk func(i int) bool
		walk = func(i int) bool {
			if i == len(occ) {
				d, expanded := expand(r, occ, choice, ren)
				if !expanded {
					return true // heads never unify; this combination derives nothing
				}
				if len(d.Pos) > maxBodyAtoms {
					return false
				}
				key := d.CanonicalString()
				if keys[key] {
					return true
				}
				keys[key] = true
				next = append(next, d)
				if !prevKeys[key] {
					grew = append(grew, d)
				}
				return len(next) <= maxDisjuncts
			}
			for _, c := range prev {
				choice[i] = c
				if !walk(i + 1) {
					return false
				}
			}
			return true
		}
		if !walk(0) {
			return nil, nil, false
		}
	}
	return next, grew, true
}

// expand resolves rule r's p-subgoals (at body positions occ) against
// the chosen disjuncts: each disjunct is renamed apart, its head
// unified with the subgoal's arguments under one accumulated
// substitution, and its body spliced in place of the subgoal. ren
// avoids the variables of p's rules, and its names from different
// calls are distinct, so the renamed disjuncts are apart from r and
// from each other.
func expand(r ast.Rule, occ []int, choice []ast.Rule, ren *ast.Renamer) (ast.Rule, bool) {
	renamed := make([]ast.Rule, len(choice))
	for i, d := range choice {
		renamed[i] = ast.RenameRule(d, ren.Next(d.Vars()))
	}
	subst := unify.Subst{}
	for i, oi := range occ {
		// Disjunct head first: its variables are bound in preference,
		// so the rule's own names (head variables included) survive.
		if !subst.UnifyArgs(renamed[i].Head.Args, r.Pos[oi].Args) {
			return ast.Rule{}, false
		}
	}
	out := ast.Rule{Head: subst.ApplyAtom(r.Head), At: r.At}
	ri := 0
	for i, a := range r.Pos {
		if ri < len(occ) && occ[ri] == i {
			for _, pa := range renamed[ri].Pos {
				out.Pos = append(out.Pos, subst.ApplyAtom(pa))
			}
			for _, c := range renamed[ri].Cmp {
				out.Cmp = append(out.Cmp, subst.ApplyCmp(c))
			}
			ri++
			continue
		}
		out.Pos = append(out.Pos, subst.ApplyAtom(a))
	}
	for _, c := range r.Cmp {
		out.Cmp = append(out.Cmp, subst.ApplyCmp(c))
	}
	return out, true
}

// dedupe drops syntactic duplicates (modulo variable renaming),
// recording canonical keys in keys when non-nil.
func dedupe(rs []ast.Rule, keys map[string]bool) []ast.Rule {
	if keys == nil {
		keys = map[string]bool{}
	}
	out := make([]ast.Rule, 0, len(rs))
	for _, r := range rs {
		key := r.CanonicalString()
		if keys[key] {
			continue
		}
		keys[key] = true
		out = append(out, r)
	}
	return out
}

// safeDisjuncts verifies every witness disjunct is range-restricted;
// expansion preserves safety of safe inputs, so this is defensive.
func safeDisjuncts(rs []ast.Rule) error {
	for _, r := range rs {
		if err := r.Safe(); err != nil {
			return err
		}
	}
	return nil
}
