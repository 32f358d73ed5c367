// Package magic implements goal-directed program rewrites: the
// magic-sets transformation (demand-driven evaluation of queries with
// bound arguments) and a streaming unfolding rewrite for non-recursive
// predicates feeding a single consumer (stream.go).
//
// The magic-sets rewrite takes the query's binding-pattern adornment
// (binding.go) and propagates it through rule bodies left to
// right (the textbook sideways-information-passing strategy): each
// adorned predicate p^a gets a magic predicate magic#p#a holding the
// bound-argument combinations the query actually demands, and shared
// join prefixes are factored into supplementary predicates sup#r#j#a.
// The output is an ordinary program over the same EDB, so the existing
// semi-naive engines — compiled plans, join-order policies, parallel
// rounds, provenance — evaluate it unchanged. Restricted to the goal's
// bindings, the rewritten query relation agrees exactly with the
// bottom-up one; eval.QueryCtx enforces the restriction on both paths,
// so answers are identical while the fixpoint only derives facts the
// demand reaches.
//
// Generated predicate names contain '#', which the lexer rejects in
// identifiers, so they can never collide with user predicates. The
// rewrite is sound for the whole language the engines accept (negation
// is EDB-only and order atoms are pure filters); Rewrite still refuses
// — with ErrNotApplicable, so callers fall back to bottom-up — goals
// without bound arguments, query predicates without rules, arity
// mismatches, and adornment blowups past a fixed cap.
package magic

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ast"
)

// ErrNotApplicable is wrapped by Rewrite errors that mean "evaluate
// bottom-up instead"; distinguish them from real failures with
// errors.Is.
var ErrNotApplicable = errors.New("magic rewrite not applicable")

const (
	// maxAdornments caps distinct (predicate, pattern) pairs; past it
	// the rewrite declares itself inapplicable rather than exploding.
	maxAdornments = 256
	// maxRules caps the rewritten program size, same escape hatch.
	maxRules = 4096
)

// Result is a successful magic-sets rewrite.
type Result struct {
	// Program is the rewritten program. Its query predicate is the
	// adorned original (e.g. path#bf); its Goal is a copy of the
	// input's. Evaluating it bottom-up and selecting the tuples that
	// match the goal yields exactly the original query's answers.
	Program *ast.Program
	// Pattern is the query's binding-pattern adornment.
	Pattern BindingPattern
	// MagicRules and SupRules count the generated demand and
	// supplementary rules (diagnostics).
	MagicRules, SupRules int
}

// AdornedName returns the rewritten name of the query predicate under
// a pattern (exported for diagnostics and tests).
func AdornedName(pred string, pat BindingPattern) string {
	return pred + "#" + string(pat)
}

func magicName(pred string, pat BindingPattern) string {
	return "magic#" + pred + "#" + string(pat)
}

func supName(ri, j int, pat BindingPattern) string {
	return fmt.Sprintf("sup#%d#%d#%s", ri, j, pat)
}

// Rewrite applies the magic-sets transformation to a program whose
// goal binds at least one argument. On ErrNotApplicable the caller
// should evaluate the original program bottom-up.
func Rewrite(p *ast.Program) (*Result, error) {
	if p.Query == "" || len(p.Goal) == 0 {
		return nil, fmt.Errorf("%w: query has no goal arguments", ErrNotApplicable)
	}
	pat := GoalPattern(p.Goal)
	if !pat.HasBound() {
		return nil, fmt.Errorf("%w: goal %s binds no argument", ErrNotApplicable, p.GoalAtom())
	}
	idb := p.IDB()
	if !idb[p.Query] {
		// No rules: the query relation is empty either way.
		return nil, fmt.Errorf("%w: query predicate %s has no rules", ErrNotApplicable, p.Query)
	}
	ar, err := p.PredArity()
	if err != nil {
		return nil, err
	}
	if n := ar[p.Query]; n != len(p.Goal) {
		return nil, fmt.Errorf("%w: goal arity %d but predicate %s has arity %d",
			ErrNotApplicable, len(p.Goal), p.Query, n)
	}
	// The engines restrict negation to EDB predicates (Validate
	// enforces it); an IDB negation slipping through would make demand
	// pruning unsound, so refuse defensively rather than miscompute.
	for _, r := range p.Rules {
		for _, n := range r.Neg {
			if idb[n.Pred] {
				return nil, fmt.Errorf("%w: rule negates IDB predicate %s", ErrNotApplicable, n.Pred)
			}
		}
	}

	rw := &rewriter{
		prog:   p,
		idb:    idb,
		seen:   map[adornKey]bool{},
		copied: map[string]bool{},
		out: &ast.Program{
			Query: AdornedName(p.Query, pat),
			Goal:  append([]ast.Term(nil), p.Goal...),
		},
	}
	// Seed: the goal's bound constants, as a bodiless ground rule. It
	// must be a rule, not an EDB fact — the engines read a predicate
	// that has rules exclusively from the IDB, so an extensional seed
	// would be invisible to the demand joins. It is the first rule and
	// the only place the goal's constants enter the output (see Bind).
	rw.out.Rules = append(rw.out.Rules, ast.Rule{
		Head: ast.Atom{Pred: magicName(p.Query, pat), Args: cloneTerms(pat.Project(p.Goal))},
	})
	rw.enqueue(p.Query, pat)
	for len(rw.queue) > 0 {
		k := rw.queue[0]
		rw.queue = rw.queue[1:]
		if len(rw.seen) > maxAdornments || len(rw.out.Rules) > maxRules {
			return nil, fmt.Errorf("%w: adornment blowup (%d adornments, %d rules)",
				ErrNotApplicable, len(rw.seen), len(rw.out.Rules))
		}
		rw.rewritePred(k)
	}
	// Predicates demanded with an all-free pattern are computed
	// bottom-up under their original names, along with every IDB
	// predicate they transitively depend on.
	for i := 0; i < len(rw.copyQueue); i++ {
		pred := rw.copyQueue[i]
		for _, r := range p.Rules {
			if r.Head.Pred != pred {
				continue
			}
			rw.out.Rules = append(rw.out.Rules, r.Clone())
			for _, a := range r.Pos {
				rw.copy(a.Pred)
			}
		}
	}
	if len(rw.out.Rules) > maxRules {
		return nil, fmt.Errorf("%w: rewritten program too large (%d rules)", ErrNotApplicable, len(rw.out.Rules))
	}
	return &Result{Program: rw.out, Pattern: pat, MagicRules: rw.magicRules, SupRules: rw.supRules}, nil
}

// Bind returns the rewritten program for goal, which must have the
// binding pattern r.Pattern: the output at another goal of that pattern
// differs in the goal and the seed rule alone, so Bind builds those and
// shares every other rule with r.Program, which it never writes. It
// renders exactly as Rewrite does at goal.
func (r *Result) Bind(goal []ast.Term) *ast.Program {
	out := &ast.Program{Query: r.Program.Query, Goal: cloneTerms(goal), Rules: slices.Clone(r.Program.Rules)}
	out.Rules[0] = r.Seed(goal)
	return out
}

// Seed returns the seed rule — Program.Rules[0], the one rule whose
// constants are the goal's — for goal, which must have the binding
// pattern r.Pattern: a fact of the query's magic predicate holding
// goal's bound arguments.
func (r *Result) Seed(goal []ast.Term) ast.Rule {
	return ast.Rule{Head: ast.Atom{Pred: r.Program.Rules[0].Head.Pred, Args: r.Pattern.Project(goal)}}
}

type adornKey struct {
	pred string
	pat  BindingPattern
}

type rewriter struct {
	prog      *ast.Program
	idb       map[string]bool
	out       *ast.Program
	seen      map[adornKey]bool
	queue     []adornKey
	copied    map[string]bool
	copyQueue []string

	magicRules, supRules int
}

// enqueue schedules a (predicate, pattern) pair for rewriting once.
func (rw *rewriter) enqueue(pred string, pat BindingPattern) {
	k := adornKey{pred, pat}
	if rw.seen[k] {
		return
	}
	rw.seen[k] = true
	rw.queue = append(rw.queue, k)
}

// copy schedules an IDB predicate for verbatim (bottom-up) inclusion.
func (rw *rewriter) copy(pred string) {
	if !rw.idb[pred] || rw.copied[pred] {
		return
	}
	rw.copied[pred] = true
	rw.copyQueue = append(rw.copyQueue, pred)
}

func (rw *rewriter) rewritePred(k adornKey) {
	for ri, r := range rw.prog.Rules {
		if r.Head.Pred == k.pred {
			rw.rewriteRule(ri, r, k.pat)
		}
	}
}

// rewriteRule emits the adorned form of one rule under one head
// pattern: a left-to-right walk over the body that closes the current
// join prefix into a supplementary predicate at each bound IDB
// subgoal, derives that subgoal's magic (demand) predicate from the
// prefix, and finishes with the adorned head rule over the remaining
// chunk. Filters (order atoms, negated EDB subgoals) attach to the
// earliest emitted rule whose prefix binds all their variables, so
// they prune demand as early as possible.
func (rw *rewriter) rewriteRule(ri int, r ast.Rule, pat BindingPattern) {
	magicAtom := ast.Atom{Pred: magicName(r.Head.Pred, pat), Args: cloneTerms(pat.Project(r.Head.Args))}
	cur := []ast.Atom{magicAtom}
	attachedCmp := make([]bool, len(r.Cmp))
	attachedNeg := make([]bool, len(r.Neg))
	for j, s := range r.Pos {
		if rw.idb[s.Pred] {
			avail := availVars(cur)
			spat := PatternFor(s.Args, avail)
			if spat.HasBound() {
				if len(cur) > 1 {
					// Close the chunk: its join is shared between the
					// demand rule below and the continuation, so factor
					// it into a supplementary predicate projecting the
					// bound variables still needed downstream.
					supCmp, supNeg := takeFilters(r, avail, attachedCmp, attachedNeg)
					need := neededLater(r, j, attachedCmp, attachedNeg)
					var headVars []string
					for v := range avail {
						if need[v] {
							headVars = append(headVars, v)
						}
					}
					sort.Strings(headVars)
					supAtom := ast.Atom{Pred: supName(ri, j, pat), Args: varsToTerms(headVars)}
					rw.out.Rules = append(rw.out.Rules, ast.Rule{
						Head: supAtom, Pos: cloneAtoms(cur), Neg: supNeg, Cmp: supCmp,
					})
					rw.supRules++
					cur = []ast.Atom{supAtom}
				}
				mhead := ast.Atom{Pred: magicName(s.Pred, spat), Args: cloneTerms(spat.Project(s.Args))}
				// Skip identity demand rules (m :- m), which recursion
				// on an unchanged binding pattern would otherwise emit.
				if !mhead.Equal(cur[0]) {
					rw.out.Rules = append(rw.out.Rules, ast.Rule{Head: mhead, Pos: cloneAtoms(cur)})
					rw.magicRules++
				}
				rw.enqueue(s.Pred, spat)
				cur = append(cur, ast.Atom{Pred: AdornedName(s.Pred, spat), Args: cloneTerms(s.Args)})
				continue
			}
			// No binding reaches this subgoal: it is computed bottom-up
			// under its original name.
			rw.copy(s.Pred)
		}
		cur = append(cur, s.Clone())
	}
	var cmps []ast.Cmp
	for i, c := range r.Cmp {
		if !attachedCmp[i] {
			cmps = append(cmps, c)
		}
	}
	var negs []ast.Atom
	for i, n := range r.Neg {
		if !attachedNeg[i] {
			negs = append(negs, n.Clone())
		}
	}
	head := ast.Atom{Pred: AdornedName(r.Head.Pred, pat), Args: cloneTerms(r.Head.Args)}
	rw.out.Rules = append(rw.out.Rules, ast.Rule{Head: head, Pos: cur, Neg: negs, Cmp: cmps})
}

// takeFilters claims (and marks attached) every filter whose variables
// the current prefix binds; they move onto the supplementary rule.
func takeFilters(r ast.Rule, avail map[string]bool, attachedCmp, attachedNeg []bool) ([]ast.Cmp, []ast.Atom) {
	var cmps []ast.Cmp
	for i, c := range r.Cmp {
		if attachedCmp[i] || !allIn(c.Vars(nil), avail) {
			continue
		}
		attachedCmp[i] = true
		cmps = append(cmps, c)
	}
	var negs []ast.Atom
	for i, n := range r.Neg {
		if attachedNeg[i] || !allIn(n.Vars(nil), avail) {
			continue
		}
		attachedNeg[i] = true
		negs = append(negs, n.Clone())
	}
	return cmps, negs
}

// neededLater returns the variables a supplementary predicate closing
// the prefix before Pos[j] must carry: everything used by the head,
// by Pos[j:] (including the subgoal being demanded), or by a filter
// not yet attached.
func neededLater(r ast.Rule, j int, attachedCmp, attachedNeg []bool) map[string]bool {
	need := map[string]bool{}
	for _, v := range r.Head.Vars(nil) {
		need[v] = true
	}
	for _, a := range r.Pos[j:] {
		for _, v := range a.Vars(nil) {
			need[v] = true
		}
	}
	for i, c := range r.Cmp {
		if !attachedCmp[i] {
			for _, v := range c.Vars(nil) {
				need[v] = true
			}
		}
	}
	for i, n := range r.Neg {
		if !attachedNeg[i] {
			for _, v := range n.Vars(nil) {
				need[v] = true
			}
		}
	}
	return need
}

func availVars(atoms []ast.Atom) map[string]bool {
	m := map[string]bool{}
	for _, a := range atoms {
		for _, v := range a.Vars(nil) {
			m[v] = true
		}
	}
	return m
}

func allIn(vars []string, set map[string]bool) bool {
	for _, v := range vars {
		if !set[v] {
			return false
		}
	}
	return true
}

func cloneTerms(ts []ast.Term) []ast.Term {
	return append([]ast.Term(nil), ts...)
}

func cloneAtoms(as []ast.Atom) []ast.Atom {
	out := make([]ast.Atom, len(as))
	for i, a := range as {
		out[i] = a.Clone()
	}
	return out
}

func varsToTerms(vars []string) []ast.Term {
	out := make([]ast.Term, len(vars))
	for i, v := range vars {
		out[i] = ast.V(v)
	}
	return out
}
