package ast

import (
	"fmt"
	"sort"
)

// Program is a datalog program: a set of rules together with a
// distinguished query (goal) predicate.
type Program struct {
	Rules []Rule
	// Query names the distinguished IDB query predicate.
	Query string
	// Goal optionally carries the query's argument terms, written
	// `?- pred(t1, ..., tn).` in source syntax. nil means the bare
	// `?- pred.` form (ask for the whole relation). Constants in the
	// goal are selections on the query predicate — evaluation returns
	// only the tuples matching them — and they are the binding
	// information the magic-sets rewrite (internal/magic) turns into
	// demand predicates. Repeated goal variables additionally require
	// equal values at their positions.
	Goal []Term
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	out := &Program{Query: p.Query, Rules: make([]Rule, len(p.Rules))}
	for i, r := range p.Rules {
		out.Rules[i] = r.Clone()
	}
	if p.Goal != nil {
		out.Goal = append([]Term(nil), p.Goal...)
	}
	return out
}

// GoalAtom returns the query as an atom: the query predicate applied
// to the goal terms (no arguments for the bare `?- pred.` form).
func (p *Program) GoalAtom() Atom {
	return Atom{Pred: p.Query, Args: p.Goal}
}

// MatchesGoal reports whether a tuple of the query relation satisfies
// the goal: constants must be equal at their positions, and positions
// sharing a goal variable must hold equal values. A nil goal matches
// everything. The tuple must have exactly len(p.Goal) terms when a
// goal is present.
func (p *Program) MatchesGoal(tuple []Term) bool {
	if len(p.Goal) == 0 {
		return true
	}
	if len(tuple) != len(p.Goal) {
		return false
	}
	for i, g := range p.Goal {
		if g.IsConst() {
			if !g.Equal(tuple[i]) {
				return false
			}
			continue
		}
		// A repeated variable must agree with its first occurrence.
		for j, h := range p.Goal[:i] {
			if h.IsVar() && h.Name == g.Name {
				if !tuple[j].Equal(tuple[i]) {
					return false
				}
				break
			}
		}
	}
	return true
}

// IDB returns the set of IDB predicates: those appearing in rule heads.
func (p *Program) IDB() map[string]bool {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	return idb
}

// Recursion is the strongly connected components of a program's IDB
// dependency graph: an edge p → q when q occurs positively in the body
// of a rule with head p (negation is EDB-only, so it adds no edges).
type Recursion struct {
	// Comps lists the components in topological order, dependencies
	// first; each component is sorted.
	Comps [][]string
	// Cyclic reports, per component, whether it is recursive: it has
	// more than one predicate, or its one predicate depends on itself.
	Cyclic []bool
	// Comp maps each IDB predicate to the index of its component.
	Comp map[string]int
	// Self holds the predicates some rule of which uses the predicate
	// itself as a positive subgoal.
	Self map[string]bool
}

// Recursive reports whether pred lies on a dependency cycle.
func (rc *Recursion) Recursive(pred string) bool {
	c, ok := rc.Comp[pred]
	return ok && rc.Cyclic[c]
}

// Same reports whether the IDB predicates p and q are in one component,
// i.e. each depends on the other (or p == q).
func (rc *Recursion) Same(p, q string) bool {
	cp, ok := rc.Comp[p]
	cq, okq := rc.Comp[q]
	return ok && okq && cp == cq
}

// Recursion runs Tarjan's SCC algorithm over the IDB dependency graph.
// Tarjan completes an SCC only after every SCC reachable from it, so
// the pop order is already topological with dependencies first. All
// iteration is over sorted predicate lists, keeping the result
// deterministic.
func (p *Program) Recursion() *Recursion {
	idb := p.IDB()
	preds := make([]string, 0, len(idb))
	for pred := range idb {
		preds = append(preds, pred)
	}
	sort.Strings(preds)

	rc := &Recursion{Comp: map[string]int{}, Self: map[string]bool{}}
	succ := map[string][]string{}
	for _, r := range p.Rules {
		for _, a := range r.Pos {
			if !idb[a.Pred] {
				continue
			}
			succ[r.Head.Pred] = append(succ[r.Head.Pred], a.Pred)
			if a.Pred == r.Head.Pred {
				rc.Self[r.Head.Pred] = true
			}
		}
	}
	for pred := range succ {
		sort.Strings(succ[pred])
	}

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0

	var strongconnect func(string)
	strongconnect = func(pred string) {
		index[pred] = next
		low[pred] = next
		next++
		stack = append(stack, pred)
		onStack[pred] = true
		for _, q := range succ[pred] {
			if _, seen := index[q]; !seen {
				strongconnect(q)
				if low[q] < low[pred] {
					low[pred] = low[q]
				}
			} else if onStack[q] && index[q] < low[pred] {
				low[pred] = index[q]
			}
		}
		if low[pred] == index[pred] {
			var comp []string
			for {
				q := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[q] = false
				comp = append(comp, q)
				rc.Comp[q] = len(rc.Comps)
				if q == pred {
					break
				}
			}
			sort.Strings(comp)
			rc.Comps = append(rc.Comps, comp)
			rc.Cyclic = append(rc.Cyclic, len(comp) > 1 || rc.Self[comp[0]])
		}
	}
	for _, pred := range preds {
		if _, seen := index[pred]; !seen {
			strongconnect(pred)
		}
	}
	return rc
}

// PredArity returns the arity of every predicate mentioned in the
// program, or an error if some predicate is used with two different
// arities.
func (p *Program) PredArity() (map[string]int, error) {
	ar := map[string]int{}
	note := func(a Atom) error {
		if n, ok := ar[a.Pred]; ok && n != a.Arity() {
			return fmt.Errorf("predicate %s used with arities %d and %d", a.Pred, n, a.Arity())
		}
		ar[a.Pred] = a.Arity()
		return nil
	}
	for _, r := range p.Rules {
		if err := note(r.Head); err != nil {
			return nil, err
		}
		for _, a := range r.Pos {
			if err := note(a); err != nil {
				return nil, err
			}
		}
		for _, a := range r.Neg {
			if err := note(a); err != nil {
				return nil, err
			}
		}
	}
	return ar, nil
}

// RulesFor returns the rules whose head predicate is pred, in program
// order.
func (p *Program) RulesFor(pred string) []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Head.Pred == pred {
			out = append(out, r)
		}
	}
	return out
}

// Validate checks the well-formedness conditions the optimizer assumes:
// consistent arities, safety of every rule, negation applied only to
// EDB predicates, and that the query predicate is an IDB predicate.
func (p *Program) Validate() error {
	if _, err := p.PredArity(); err != nil {
		return err
	}
	// A query predicate with no rules is permitted and denotes the
	// empty relation — the natural output of optimizing a query that
	// is unsatisfiable with respect to its constraints.
	idb := p.IDB()
	if len(p.Goal) > 0 {
		if p.Query == "" {
			return fmt.Errorf("goal %s given without a query predicate", Atom{Pred: "?", Args: p.Goal})
		}
		ar, _ := p.PredArity() // already checked above
		if n, ok := ar[p.Query]; ok && n != len(p.Goal) {
			return fmt.Errorf("goal %s has arity %d but predicate %s has arity %d",
				p.GoalAtom(), len(p.Goal), p.Query, n)
		}
	}
	for _, r := range p.Rules {
		if err := r.Safe(); err != nil {
			return err
		}
		for _, a := range r.Neg {
			if idb[a.Pred] {
				return fmt.Errorf("rule %s negates IDB predicate %s; only EDB predicates may be negated", r, a.Pred)
			}
		}
	}
	return nil
}

// ValidateICs checks that a set of integrity constraints is
// well-formed with respect to the program: no IDB predicates in ic
// bodies, and consistent arities with the program's EDB predicates.
func (p *Program) ValidateICs(ics []IC) error {
	idb := p.IDB()
	ar, err := p.PredArity()
	if err != nil {
		return err
	}
	for i, ic := range ics {
		for _, a := range append(append([]Atom{}, ic.Pos...), ic.Neg...) {
			if idb[a.Pred] {
				return fmt.Errorf("ic %d (%s): IDB predicate %s not allowed in ic bodies", i, ic, a.Pred)
			}
			if n, ok := ar[a.Pred]; ok && n != a.Arity() {
				return fmt.Errorf("ic %d (%s): predicate %s has arity %d in the program but %d here", i, ic, a.Pred, n, a.Arity())
			}
		}
		// Every variable of an order atom or negated atom should occur
		// in some atom of the ic; otherwise the ic can never be
		// evaluated meaningfully against a database.
		posVars := map[string]bool{}
		for _, a := range ic.Pos {
			for _, v := range a.Vars(nil) {
				posVars[v] = true
			}
		}
		for _, a := range ic.Neg {
			for _, v := range a.Vars(nil) {
				posVars[v] = true
			}
		}
		for _, c := range ic.Cmp {
			for _, v := range c.Vars(nil) {
				if !posVars[v] {
					return fmt.Errorf("ic %d (%s): order-atom variable %s occurs in no relational atom", i, ic, v)
				}
			}
		}
	}
	return nil
}

// String renders the program in source syntax, one rule per line.
func (p *Program) String() string {
	var w writer
	for _, r := range p.Rules {
		w.rule(r)
		w.WriteByte('\n')
	}
	return w.String()
}
