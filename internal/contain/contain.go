// Package contain implements query containment: conjunctive-query
// containment by containment mappings (with sound handling of order
// atoms), union-of-CQ containment, containment of a datalog program in
// a union of conjunctive queries, and both directions of the
// LOGSPACE reduction between containment and satisfiability stated as
// Proposition 5.1 of the paper.
//
// The CQ-level procedures live in the dependency-light internal/cqc
// core (so the boundedness analyzer under eval can use them without
// importing the query-tree stack) and are re-exported here unchanged;
// this package adds the program-level reductions, which need qtree.
package contain

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/cqc"
	"repro/internal/qtree"
)

// CQ is a conjunctive query, represented as a single rule: the head
// lists the distinguished variables, the body is a conjunction of
// positive EDB atoms, negated EDB atoms, and order atoms.
type CQ = cqc.CQ

// Contained reports whether q1 ⊑ q2 holds for conjunctive queries
// without order atoms or negation; see cqc.Contained.
func Contained(q1, q2 CQ) (bool, error) { return cqc.Contained(q1, q2) }

// ContainedOrder reports whether q1 ⊑ q2 for CQs whose bodies may
// carry order atoms (no negation), soundly; see cqc.ContainedOrder.
func ContainedOrder(q1, q2 CQ) (bool, error) { return cqc.ContainedOrder(q1, q2) }

// ContainedOrderComplete decides q1 ⊑ q2 for CQs with order atoms (no
// negation) completely via Klug's linearization argument; see
// cqc.ContainedOrderComplete.
func ContainedOrderComplete(q1, q2 CQ) (bool, error) {
	return cqc.ContainedOrderComplete(q1, q2)
}

// UCQContained reports whether the union of CQs qs1 is contained in
// the union qs2 (pure CQs) by the Sagiv–Yannakakis theorem; see
// cqc.UCQContained.
func UCQContained(qs1, qs2 []CQ) (bool, error) { return cqc.UCQContained(qs1, qs2) }

// goalPred is the fresh EDB predicate introduced by the Prop 5.1
// reduction.
const goalPred = "contain_goal"

// reducedQuery is the fresh query predicate of the reduction.
const reducedQuery = "contain_q"

// ProgramContainedInUCQ decides whether datalog program p (with query
// predicate p.Query of the same arity as the CQ heads) is contained in
// the union of conjunctive queries ucq, using the Proposition 5.1
// reduction to (un)satisfiability and the query-tree decision
// procedure: P ⊑ Φ iff the augmented query is unsatisfiable w.r.t.
// the constraints {:- goal(X̄), body_φ : φ ∈ Φ}.
//
// The CQ bodies must range over EDB predicates of p (they become
// integrity constraints, which cannot mention IDB predicates).
func ProgramContainedInUCQ(p *ast.Program, ucq []CQ) (bool, error) {
	prog, ics, err := NotContainedAsSatisfiability(p, ucq)
	if err != nil {
		return false, err
	}
	out, err := qtree.Optimize(prog, ics)
	if err != nil {
		return false, err
	}
	if len(out.Warnings) > 0 {
		return false, fmt.Errorf("contain: reduction produced unsupported constraints: %v", out.Warnings)
	}
	return !out.Satisfiable, nil
}

// NotContainedAsSatisfiability builds the Proposition 5.1 reduction
// from non-containment to satisfiability: the returned program's query
// predicate is satisfiable w.r.t. the returned constraints iff
// p ⋢ ucq. The construction adds a fresh EDB predicate goal(X̄) that
// selects a candidate counterexample tuple, a rule
// contain_q(X̄) :- q(X̄), goal(X̄), and one constraint
// :- goal(X̄), body_φ per disjunct forbidding the candidate from being
// an answer of φ.
func NotContainedAsSatisfiability(p *ast.Program, ucq []CQ) (*ast.Program, []ast.IC, error) {
	if p.Query == "" {
		return nil, nil, fmt.Errorf("contain: program has no query predicate")
	}
	ar, err := p.PredArity()
	if err != nil {
		return nil, nil, err
	}
	n := ar[p.Query]
	idb := p.IDB()
	for _, q := range ucq {
		if q.Head.Arity() != n {
			return nil, nil, fmt.Errorf("contain: CQ head arity %d differs from query arity %d", q.Head.Arity(), n)
		}
		for _, a := range q.Pos {
			if idb[a.Pred] {
				return nil, nil, fmt.Errorf("contain: CQ body atom %s uses an IDB predicate", a)
			}
		}
	}

	prog := p.Clone()
	args := make([]ast.Term, n)
	for i := range args {
		args[i] = ast.V(fmt.Sprintf("CX%d", i))
	}
	prog.Rules = append(prog.Rules, ast.Rule{
		Head: ast.NewAtom(reducedQuery, args...),
		Pos: []ast.Atom{
			ast.NewAtom(p.Query, args...),
			ast.NewAtom(goalPred, args...),
		},
	})
	prog.Query = reducedQuery

	var ics []ast.IC
	ren := ast.NewRenamer()
	for _, q := range ucq {
		qr := ast.RenameRule(q, ren.Next(q.Vars()))
		// Bind the CQ's head variables to the goal tuple: the goal
		// atom reuses the head argument terms directly.
		ic := ast.IC{
			Pos: append([]ast.Atom{ast.NewAtom(goalPred, qr.Head.Args...)}, qr.Pos...),
			Neg: qr.Neg,
			Cmp: qr.Cmp,
		}
		ics = append(ics, ic)
	}
	return prog, ics, nil
}

// SatisfiabilityAsNonContainment builds the converse reduction of
// Proposition 5.1: the query predicate of p is satisfiable w.r.t. ics
// iff the returned program is NOT contained in the returned union of
// conjunctive queries. The program gains a 0-ary wrapper predicate
// derived from the query, and each constraint becomes a 0-ary CQ.
func SatisfiabilityAsNonContainment(p *ast.Program, ics []ast.IC) (*ast.Program, []CQ, error) {
	if p.Query == "" {
		return nil, nil, fmt.Errorf("contain: program has no query predicate")
	}
	ar, err := p.PredArity()
	if err != nil {
		return nil, nil, err
	}
	prog := p.Clone()
	args := make([]ast.Term, ar[p.Query])
	for i := range args {
		args[i] = ast.V(fmt.Sprintf("CX%d", i))
	}
	prog.Rules = append(prog.Rules, ast.Rule{
		Head: ast.NewAtom("contain_q0"),
		Pos:  []ast.Atom{ast.NewAtom(p.Query, args...)},
	})
	prog.Query = "contain_q0"

	var ucq []CQ
	for _, ic := range ics {
		ucq = append(ucq, CQ{
			Head: ast.NewAtom("contain_q0"),
			Pos:  ic.Pos,
			Neg:  ic.Neg,
			Cmp:  ic.Cmp,
		})
	}
	return prog, ucq, nil
}

// ProgramSatisfiable decides satisfiability of the program's query
// predicate w.r.t. the constraints via the query-tree procedure
// (Theorem 5.1's doubly-exponential decision procedure for the
// decidable classes).
func ProgramSatisfiable(p *ast.Program, ics []ast.IC) (bool, error) {
	out, err := qtree.Optimize(p, ics)
	if err != nil {
		return false, err
	}
	if len(out.Warnings) > 0 {
		return false, fmt.Errorf("contain: constraints outside the decidable class: %v", out.Warnings)
	}
	return out.Satisfiable, nil
}
