package qtree

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

// Functional dependencies are expressible as the Theorem 5.5
// constraint shape :- e(X, Y1), e(X, Y2), Y1 != Y2. The inequality
// spans two atoms (not local), so it is handled by the quasi-local
// residue mechanism: when both atoms map into one rule, the negated
// residue Y1 = Y2 is attached.

func TestFDMakesConflictingJoinUnsatisfiable(t *testing.T) {
	// The rule demands two DIFFERENT successors of the same key —
	// impossible when e is functional.
	p := parser.MustParseProgram(`
		conflict(X) :- e(X, Y), e(X, Z), Y < Z.
		?- conflict.
	`)
	ics := parser.MustParseICs(`:- e(X, Y1), e(X, Y2), Y1 != Y2.`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Satisfiable {
		t.Fatalf("conflict demands Y < Z on a functional relation; rewritten:\n%s", out.Program)
	}
}

func TestFDEqualityResidueAttached(t *testing.T) {
	// Joining e twice on the same key forces the targets equal: the
	// residue Y = Z must appear (directly or via substitution).
	p := parser.MustParseProgram(`
		pair(Y, Z) :- e(X, Y), e(X, Z).
		?- pair.
	`)
	ics := parser.MustParseICs(`:- e(X, Y1), e(X, Y2), Y1 != Y2.`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Satisfiable {
		t.Fatal("pair is satisfiable (with equal components)")
	}
	// The rewritten program must only produce pairs with equal
	// components on functional databases — and, because the residue is
	// compiled in, even on NON-functional ones it must restrict itself
	// to the equal pairs (the residue is part of the program now).
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`e(1, 2). e(1, 3).`)) // violates the FD
	idb, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range idb.SortedFacts("pair") {
		if f == "pair(2, 3)" || f == "pair(3, 2)" {
			t.Fatalf("residue Y = Z not incorporated: %v", idb.SortedFacts("pair"))
		}
	}
}

func TestFDEquivalenceOnFunctionalDatabases(t *testing.T) {
	// On databases satisfying the FD, original and rewritten agree.
	p := parser.MustParseProgram(`
		reach(X, Y) :- e(X, Y).
		reach(X, Y) :- e(X, Z), reach(Z, Y).
		?- reach.
	`)
	ics := parser.MustParseICs(`:- e(X, Y1), e(X, Y2), Y1 != Y2.`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`e(1, 2). e(2, 3). e(3, 1).`)) // functional cycle
	want, _, err := eval.EvalCtx(context.Background(), p, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := want.SortedFacts("reach")
	g := got.SortedFacts("reach")
	if strings.Join(w, ";") != strings.Join(g, ";") {
		t.Fatalf("answers differ:\n%v\nvs\n%v", w, g)
	}
	if len(w) != 9 {
		t.Fatalf("sanity: cycle closure should have 9 tuples, got %d", len(w))
	}
}

func TestKeyConstraintPrunesMultiKeyJoin(t *testing.T) {
	// A two-column key: same (X, Y) forces equal Z. The rule joins on
	// the key and demands distinct values.
	p := parser.MustParseProgram(`
		bad(X) :- r(X, Y, Z1), r(X, Y, Z2), Z1 != Z2.
		?- bad.
	`)
	ics := parser.MustParseICs(`:- r(X, Y, Z1), r(X, Y, Z2), Z1 != Z2.`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Satisfiable {
		t.Fatalf("bad contradicts the key constraint:\n%s", out.Program)
	}
}

func TestUnsatProgramEvaluatesEmpty(t *testing.T) {
	// The facade contract: a rewritten-unsatisfiable program evaluates
	// to the empty relation rather than erroring.
	p := parser.MustParseProgram(`
		q(X, Z) :- a(X, Y), b(Y, Z).
		?- q.
	`)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Satisfiable {
		t.Fatal("should be unsatisfiable")
	}
	db := eval.NewDB()
	db.AddFacts([]ast.Atom{
		ast.NewAtom("a", ast.N(1), ast.N(2)),
		ast.NewAtom("b", ast.N(5), ast.N(6)),
	})
	tuples, _, err := eval.QueryCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatalf("unsat program must evaluate to empty, not error: %v", err)
	}
	if len(tuples) != 0 {
		t.Fatalf("expected no answers, got %v", tuples)
	}
}
