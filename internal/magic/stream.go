package magic

// Streaming execution of non-recursive strata by unfolding: an IDB
// predicate that is non-recursive and consumed by exactly one positive
// body occurrence never needs to be materialized — its rules can be
// inlined into the consumer, so the producer's tuples flow straight
// into the consuming join instead of being stored and re-scanned.
// Structurally this is partial evaluation (resolution of the consumer
// against each producer rule); semantically it is exact, because the
// producer has no other readers and contributes nothing to the query
// relation itself. Unfold applies the rewrite to a fixpoint under
// conservative guards, and eval.QueryCtx runs it (when Options.Stream
// is set) after the magic rewrite, where the chains of supplementary
// predicates it eliminates are generated in exactly this
// single-consumer shape.

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/unify"
)

const (
	// maxUnfoldBody caps the body length of an unfolded rule; past it
	// the inlining is left undone (a huge joined body defeats the
	// planner more than materialization costs).
	maxUnfoldBody = 16
	// maxUnfoldPasses bounds the passes to a fixpoint; each pass
	// removes at least one predicate, so this is a safety net, not a
	// limit reached in practice.
	maxUnfoldPasses = 64
)

// Unfold inlines every eligible single-consumer non-recursive IDB
// predicate and returns the rewritten program (the input is never
// mutated) with the number of predicates eliminated. When nothing is
// eligible the input program itself is returned with count 0.
func Unfold(p *ast.Program) (*ast.Program, int) {
	eliminated := 0
	for pass := 0; pass < maxUnfoldPasses; pass++ {
		next := unfoldOne(p)
		if next == nil {
			break
		}
		p = next
		eliminated++
	}
	return p, eliminated
}

// unfoldOne eliminates one eligible predicate, or returns nil when no
// predicate qualifies.
func unfoldOne(p *ast.Program) *ast.Program {
	idb := p.IDB()
	rec := p.Recursion()
	// Count positive body occurrences of each IDB predicate, keeping
	// the location of the (hopefully unique) consumer.
	type site struct{ rule, pos int }
	count := map[string]int{}
	where := map[string]site{}
	for ri, r := range p.Rules {
		for pi, a := range r.Pos {
			if idb[a.Pred] {
				count[a.Pred]++
				where[a.Pred] = site{ri, pi}
			}
		}
	}
	var cands []string
	for pred, n := range count {
		if n != 1 || pred == p.Query || rec.Recursive(pred) {
			continue
		}
		if p.Rules[where[pred].rule].Head.Pred == pred {
			continue // defensive; a self-consumer is recursive anyway
		}
		cands = append(cands, pred)
	}
	sort.Strings(cands) // deterministic pick order
	for _, pred := range cands {
		s := where[pred]
		if out := inline(p, pred, s.rule, s.pos); out != nil {
			return out
		}
	}
	return nil
}

// inline resolves consumer rule ci's positive subgoal k (an atom of
// pred) against every rule of pred, replacing the consumer with one
// rule per producer and dropping the producer's rules. Returns nil if
// a guard rejects the result (body too long, safety lost).
func inline(p *ast.Program, pred string, ci, k int) *ast.Program {
	consumer := p.Rules[ci]
	atom := consumer.Pos[k]
	// The consumer may carry names an earlier unfold renamed apart, so
	// the renamer avoids all of them.
	ren := ast.NewRenamer(consumer.Vars()...)
	var unfolded []ast.Rule
	for _, prod := range p.Rules {
		if prod.Head.Pred != pred {
			continue
		}
		prod = ast.RenameRule(prod, ren.Next(prod.Vars()))
		// Producer head first: its variables are bound in preference,
		// so consumer names (head variables included) survive.
		subst := unify.Subst{}
		if !subst.UnifyArgs(prod.Head.Args, atom.Args) {
			continue // this producer can never feed the consumer
		}
		nr := ast.Rule{Head: subst.ApplyAtom(consumer.Head), At: consumer.At}
		for i, a := range consumer.Pos {
			if i == k {
				for _, pa := range prod.Pos {
					nr.Pos = append(nr.Pos, subst.ApplyAtom(pa))
				}
				continue
			}
			nr.Pos = append(nr.Pos, subst.ApplyAtom(a))
		}
		for _, n := range consumer.Neg {
			nr.Neg = append(nr.Neg, subst.ApplyAtom(n))
		}
		for _, n := range prod.Neg {
			nr.Neg = append(nr.Neg, subst.ApplyAtom(n))
		}
		for _, c := range consumer.Cmp {
			nr.Cmp = append(nr.Cmp, subst.ApplyCmp(c))
		}
		for _, c := range prod.Cmp {
			nr.Cmp = append(nr.Cmp, subst.ApplyCmp(c))
		}
		if len(nr.Pos) > maxUnfoldBody || nr.Safe() != nil {
			return nil
		}
		unfolded = append(unfolded, nr)
	}
	// If no producer head unifies, the consumer can never fire and is
	// dropped along with the producer — `unfolded` is empty, which the
	// rule assembly below handles naturally.
	out := &ast.Program{Query: p.Query}
	if p.Goal != nil {
		out.Goal = append([]ast.Term(nil), p.Goal...)
	}
	for ri, r := range p.Rules {
		switch {
		case ri == ci:
			out.Rules = append(out.Rules, unfolded...)
		case r.Head.Pred == pred:
			// producer rule, dropped
		default:
			out.Rules = append(out.Rules, r.Clone())
		}
	}
	return out
}
