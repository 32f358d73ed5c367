// Package contain decides containment of a datalog program in a union
// of conjunctive queries, and implements both directions of the
// LOGSPACE reduction between containment and satisfiability stated as
// Proposition 5.1 of the paper.
//
// Containment of one conjunctive query in another — by containment
// mappings, with order atoms, and of unions — is package cqc, a
// dependency-light core that the boundedness analyzer under eval can use
// without importing the query-tree stack. The reductions here need
// qtree. A conjunctive query is a cqc.CQ: a single rule whose head lists
// the distinguished variables.
package contain

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/cqc"
	"repro/internal/qtree"
)

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
func ProgramContainedInUCQ(p *ast.Program, ucq []cqc.CQ) (bool, error) {
	prog, ics, err := NotContainedAsSatisfiability(p, ucq)
	if err != nil {
		return false, err
	}
	out, err := qtree.OptimizeCtx(context.TODO(), prog, ics, qtree.DefaultOptions())
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
func NotContainedAsSatisfiability(p *ast.Program, ucq []cqc.CQ) (*ast.Program, []ast.IC, error) {
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
func SatisfiabilityAsNonContainment(p *ast.Program, ics []ast.IC) (*ast.Program, []cqc.CQ, error) {
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

	var ucq []cqc.CQ
	for _, ic := range ics {
		ucq = append(ucq, cqc.CQ{
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
	out, err := qtree.OptimizeCtx(context.TODO(), p, ics, qtree.DefaultOptions())
	if err != nil {
		return false, err
	}
	if len(out.Warnings) > 0 {
		return false, fmt.Errorf("contain: constraints outside the decidable class: %v", out.Warnings)
	}
	return out.Satisfiable, nil
}
