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
	"slices"
	"sort"

	"repro/internal/ast"
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
	rec := recursivePreds(p, idb)
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
		if n != 1 || pred == p.Query || rec[pred] {
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
	taken := map[string]bool{}
	for _, v := range consumer.Vars() {
		taken[v] = true
	}
	var unfolded []ast.Rule
	for _, prod := range p.Rules {
		if prod.Head.Pred != pred {
			continue
		}
		// Rename the producer's variables apart from the consumer's.
		suffix := freshSuffix(prod, taken)
		prod = ast.RenameRule(prod, func(v string) string { return v + suffix })
		subst, ok := unifyArgs(atom.Args, prod.Head.Args)
		if !ok {
			continue // this producer can never feed the consumer
		}
		nr := ast.Rule{Head: substAtom(consumer.Head, subst), At: consumer.At}
		for i, a := range consumer.Pos {
			if i == k {
				for _, pa := range prod.Pos {
					nr.Pos = append(nr.Pos, substAtom(pa, subst))
				}
				continue
			}
			nr.Pos = append(nr.Pos, substAtom(a, subst))
		}
		for _, n := range consumer.Neg {
			nr.Neg = append(nr.Neg, substAtom(n, subst))
		}
		for _, n := range prod.Neg {
			nr.Neg = append(nr.Neg, substAtom(n, subst))
		}
		for _, c := range consumer.Cmp {
			nr.Cmp = append(nr.Cmp, substCmp(c, subst))
		}
		for _, c := range prod.Cmp {
			nr.Cmp = append(nr.Cmp, substCmp(c, subst))
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

// freshSuffix returns the shortest run of "#u" that, appended to each of
// prod's variables, names none of the taken ones. '#' cannot appear in
// source identifiers, so one "#u" is disjoint from every variable a user
// wrote — but not from those an earlier unfold of another producer left
// in the consumer: a producer's Z cannot become Z#u when the consumer
// already has a Z#u of its own, or the two would be joined.
func freshSuffix(prod ast.Rule, taken map[string]bool) string {
	vars := prod.Vars()
	for suffix := "#u"; ; suffix += "#u" {
		if !slices.ContainsFunc(vars, func(v string) bool { return taken[v+suffix] }) {
			return suffix
		}
	}
}

// recursivePreds returns the IDB predicates on a positive dependency
// cycle (reachable from themselves through positive IDB subgoals).
func recursivePreds(p *ast.Program, idb map[string]bool) map[string]bool {
	deps := map[string][]string{}
	for _, r := range p.Rules {
		for _, a := range r.Pos {
			if idb[a.Pred] {
				deps[r.Head.Pred] = append(deps[r.Head.Pred], a.Pred)
			}
		}
	}
	rec := map[string]bool{}
	for pred := range idb {
		seen := map[string]bool{}
		stack := append([]string(nil), deps[pred]...)
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if q == pred {
				rec[pred] = true
				break
			}
			if seen[q] {
				continue
			}
			seen[q] = true
			stack = append(stack, deps[q]...)
		}
	}
	return rec
}

// unifyArgs unifies a consumer atom's arguments with a (renamed-apart)
// producer head's arguments, returning a substitution over both rules'
// variables. Producer heads may repeat variables and hold constants,
// so this is full syntactic unification over flat terms.
func unifyArgs(a, b []ast.Term) (map[string]ast.Term, bool) {
	if len(a) != len(b) {
		return nil, false
	}
	subst := map[string]ast.Term{}
	var walk func(t ast.Term) ast.Term
	walk = func(t ast.Term) ast.Term {
		for t.IsVar() {
			next, ok := subst[t.Name]
			if !ok {
				return t
			}
			t = next
		}
		return t
	}
	for i := range a {
		x, y := walk(a[i]), walk(b[i])
		switch {
		case x.IsVar() && y.IsVar() && x.Name == y.Name:
		case y.IsVar():
			// Prefer binding the producer-side variable so consumer
			// names (head variables included) survive the rewrite.
			subst[y.Name] = x
		case x.IsVar():
			subst[x.Name] = y
		case !x.Equal(y):
			return nil, false
		}
	}
	// Flatten chains so substAtom can apply the map in one step.
	for v := range subst {
		subst[v] = walk(ast.V(v))
	}
	return subst, true
}

func substTerm(t ast.Term, subst map[string]ast.Term) ast.Term {
	if t.IsVar() {
		if r, ok := subst[t.Name]; ok {
			return r
		}
	}
	return t
}

func substAtom(a ast.Atom, subst map[string]ast.Term) ast.Atom {
	out := ast.Atom{Pred: a.Pred, At: a.At, Args: make([]ast.Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = substTerm(t, subst)
	}
	return out
}

func substCmp(c ast.Cmp, subst map[string]ast.Term) ast.Cmp {
	c.Left = substTerm(c.Left, subst)
	c.Right = substTerm(c.Right, subst)
	return c
}
