package chase

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func TestIsConsistentBasic(t *testing.T) {
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	ok, err := IsConsistent(parser.MustParseFacts(`a(1, 2). b(3, 4).`), ics)
	if err != nil || !ok {
		t.Fatalf("disconnected a/b facts are consistent: %v %v", ok, err)
	}
	ok, err = IsConsistent(parser.MustParseFacts(`a(1, 2). b(2, 3).`), ics)
	if err != nil || ok {
		t.Fatalf("a(1,2), b(2,3) violates the constraint: %v %v", ok, err)
	}
}

func TestIsConsistentWithOrderAtoms(t *testing.T) {
	ics := parser.MustParseICs(`:- step(X, Y), X >= Y.`)
	ok, _ := IsConsistent(parser.MustParseFacts(`step(1, 2). step(2, 5).`), ics)
	if !ok {
		t.Fatal("increasing steps are consistent")
	}
	ok, _ = IsConsistent(parser.MustParseFacts(`step(5, 2).`), ics)
	if ok {
		t.Fatal("decreasing step violates the constraint")
	}
	ok, _ = IsConsistent(parser.MustParseFacts(`step(2, 2).`), ics)
	if ok {
		t.Fatal("self-loop violates X >= Y")
	}
}

func TestRunDeterministicRepair(t *testing.T) {
	// Inclusion-style constraint: every succ source must be in dom.
	ics := parser.MustParseICs(`
		:- succ(X, Y), !dom(X).
		:- succ(X, Y), !dom(Y).
	`)
	res := RunCtx(context.Background(), parser.MustParseFacts(`succ(1, 2). succ(2, 3).`), ics, Options{})
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	// The model must contain dom(1), dom(2), dom(3).
	want := map[string]bool{"dom(1)": true, "dom(2)": true, "dom(3)": true}
	for _, a := range res.Model {
		delete(want, a.String())
	}
	if len(want) != 0 {
		t.Fatalf("chase failed to add %v; model = %v", want, res.Model)
	}
}

func TestRunCascadingRepairs(t *testing.T) {
	// eq must be reflexive on dom, symmetric, and transitive — the
	// Theorem 5.4 machinery.
	ics := parser.MustParseICs(`
		:- dom(X), !eq(X, X).
		:- eq(X, Y), !eq(Y, X).
		:- eq(X, Z), eq(Z, Y), !eq(X, Y).
	`)
	res := RunCtx(context.Background(), parser.MustParseFacts(`dom(1). dom(2). eq(1, 2).`), ics, Options{})
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	got := map[string]bool{}
	for _, a := range res.Model {
		got[a.String()] = true
	}
	for _, f := range []string{"eq(1, 1)", "eq(2, 2)", "eq(2, 1)", "eq(1, 2)"} {
		if !got[f] {
			t.Fatalf("missing %s in chased model %v", f, res.Model)
		}
	}
}

func TestRunHardViolation(t *testing.T) {
	ics := parser.MustParseICs(`
		:- eq(X, Y), neq(X, Y).
		:- p(X, Y), !eq(X, Y).
	`)
	// p(1,2) forces eq(1,2), which collides with neq(1,2).
	res := RunCtx(context.Background(), parser.MustParseFacts(`p(1, 2). neq(1, 2).`), ics, Options{})
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict = %v, want inconsistent", res.Verdict)
	}
}

func TestRunForbiddenFacts(t *testing.T) {
	ics := parser.MustParseICs(`:- a(X), !b(X).`)
	// Repair would add b(1), but b(1) is forbidden (e.g. the query
	// body negates it).
	res := RunCtx(context.Background(), parser.MustParseFacts(`a(1).`), ics, Options{
		Forbidden: parser.MustParseFacts(`b(1).`),
	})
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict = %v, want inconsistent", res.Verdict)
	}
}

func TestRunDisjunctiveBranching(t *testing.T) {
	// Violation repairable two ways; one way collides, the other works.
	ics := parser.MustParseICs(`
		:- a(X), !b(X), !c(X).
		:- b(X), bad(X).
	`)
	res := RunCtx(context.Background(), parser.MustParseFacts(`a(1). bad(1).`), ics, Options{})
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v, want consistent via c(1)", res.Verdict)
	}
	found := false
	for _, m := range res.Model {
		if m.String() == "c(1)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected c(1) in model %v", res.Model)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	// A diverging chase: every dom element needs a successor whose
	// source and target are in dom — an infinite chain.
	ics := parser.MustParseICs(`
		:- dom(X), !succ(X, X).
	`)
	// succ(X,X) repairs terminate immediately. Use a genuinely growing
	// one instead: each a-fact forces a b-fact, each b-fact forces an
	// a-fact on the same constant — terminating. For divergence we use
	// pairing growth via two constants alternating... With function-free
	// facts over a fixed domain the chase always terminates, so true
	// divergence needs the budget to be tiny instead.
	res := RunCtx(context.Background(), parser.MustParseFacts(`dom(1). dom(2). dom(3).`), ics, Options{MaxSteps: 2})
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %v, want unknown under a 2-step budget (3 repairs needed)", res.Verdict)
	}
	res = RunCtx(context.Background(), parser.MustParseFacts(`dom(1). dom(2). dom(3).`), ics, Options{MaxSteps: 100})
	if res.Verdict != Consistent {
		t.Fatalf("verdict = %v, want consistent with budget", res.Verdict)
	}
}

func TestRunEmptyICs(t *testing.T) {
	res := RunCtx(context.Background(), parser.MustParseFacts(`a(1).`), nil, Options{})
	if res.Verdict != Consistent || len(res.Model) != 1 {
		t.Fatalf("no constraints: trivially consistent; got %v", res.Verdict)
	}
}

func TestRunPanicsOnNonGround(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunCtx(context.Background(), []ast.Atom{ast.NewAtom("a", ast.V("X"))}, nil, Options{})
}

func TestVerdictString(t *testing.T) {
	if Consistent.String() != "consistent" || Inconsistent.String() != "inconsistent" || Unknown.String() != "unknown" {
		t.Fatal("verdict strings wrong")
	}
}
