package emptiness

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func TestRuleSatisfiableNPCase(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X, Z) :- a(X, Y), b(Y, Z).
		?- q.
	`)
	// Unsatisfiable under the join-forbidding constraint.
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	v, err := RuleSatisfiableCtx(context.Background(), p.Rules[0], ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
	// Satisfiable when the join variable differs.
	p2 := parser.MustParseProgram(`
		q(X, Z) :- a(X, Y), b(W, Z).
		?- q.
	`)
	v, err = RuleSatisfiableCtx(context.Background(), p2.Rules[0], ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
}

func TestRuleSatisfiableSelfJoinPattern(t *testing.T) {
	// The constraint forbids a 2-cycle; the rule requires one.
	ics := parser.MustParseICs(`:- e(X, Y), e(Y, X).`)
	r := parser.MustParseProgram(`q(X, Y) :- e(X, Y), e(Y, X).`).Rules[0]
	v, err := RuleSatisfiableCtx(context.Background(), r, ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
	// A plain edge is fine (freezing keeps X and Y distinct, so no
	// 2-cycle appears in the canonical database).
	r2 := parser.MustParseProgram(`q(X, Y) :- e(X, Y).`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), r2, ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
	// But a self-loop in the rule IS a 1-step 2-cycle.
	r3 := parser.MustParseProgram(`q(X) :- e(X, X).`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), r3, ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
}

func TestRuleSatisfiableOrderCase(t *testing.T) {
	// {θ}-ic: steps must increase. A rule demanding a decreasing step
	// is unsatisfiable; an increasing one is satisfiable.
	ics := parser.MustParseICs(`:- step(X, Y), X >= Y.`)
	rUp := parser.MustParseProgram(`q(X, Y) :- step(X, Y), X < Y.`).Rules[0]
	v, err := RuleSatisfiableCtx(context.Background(), rUp, ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("up: verdict = %v, err = %v", v, err)
	}
	rDown := parser.MustParseProgram(`q(X, Y) :- step(X, Y), X > Y.`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), rDown, ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("down: verdict = %v, err = %v", v, err)
	}
	// Unconstrained rule: satisfiable (choose an increasing witness).
	rAny := parser.MustParseProgram(`q(X, Y) :- step(X, Y).`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), rAny, ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("any: verdict = %v, err = %v", v, err)
	}
}

func TestRuleSatisfiableOrderChain(t *testing.T) {
	// Two constrained steps: the linearization search must find the
	// ordering 1 < 2 < 3.
	ics := parser.MustParseICs(`:- step(X, Y), X >= Y.`)
	r := parser.MustParseProgram(`q(X, Z) :- step(X, Y), step(Y, Z).`).Rules[0]
	v, err := RuleSatisfiableCtx(context.Background(), r, ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
	// A cycle of steps can never satisfy monotonicity.
	r2 := parser.MustParseProgram(`q(X) :- step(X, Y), step(Y, X).`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), r2, ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("cycle: verdict = %v, err = %v", v, err)
	}
}

func TestRuleSatisfiableWithConstants(t *testing.T) {
	ics := parser.MustParseICs(`:- startPoint(X), X < 100.`)
	r := parser.MustParseProgram(`q(X) :- startPoint(X), X < 50.`).Rules[0]
	v, err := RuleSatisfiableCtx(context.Background(), r, ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
	r2 := parser.MustParseProgram(`q(X) :- startPoint(X), X > 200.`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), r2, ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
}

func TestRuleSatisfiableNegationChase(t *testing.T) {
	// {¬}-ics: chase-based semi-decision.
	ics := parser.MustParseICs(`
		:- a(X), !b(X).
		:- b(X), c(X).
	`)
	// The rule needs a(X) and c(X): chase adds b(X), then b∧c violates.
	r := parser.MustParseProgram(`q(X) :- a(X), c(X).`).Rules[0]
	v, err := RuleSatisfiableCtx(context.Background(), r, ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
	// Without c the chase converges consistently.
	r2 := parser.MustParseProgram(`q(X) :- a(X).`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), r2, ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
}

func TestRuleSatisfiableRuleNegation(t *testing.T) {
	// The rule negates b(X); the constraint forces b(X) for every a —
	// contradiction.
	ics := parser.MustParseICs(`:- a(X), !b(X).`)
	r := parser.MustParseProgram(`q(X) :- a(X), !b(X).`).Rules[0]
	v, err := RuleSatisfiableCtx(context.Background(), r, ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
}

func TestEmptyProposition52(t *testing.T) {
	// Both init rules unsatisfiable → the whole recursive program is
	// empty, even though the recursive rule alone looks fine.
	p := parser.MustParseProgram(`
		q(X, Z) :- a(X, Y), b(Y, Z).
		q(X, Z) :- c(X, Y), q(Y, Z).
		?- q.
	`)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	empty, decided, err := EmptyCtx(context.Background(), p, ics, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !decided || !empty {
		t.Fatalf("empty = %v decided = %v", empty, decided)
	}
	// Adding a satisfiable init rule flips the verdict.
	p2 := parser.MustParseProgram(`
		q(X, Z) :- a(X, Y), b(Y, Z).
		q(X, Y) :- d(X, Y).
		q(X, Z) :- c(X, Y), q(Y, Z).
		?- q.
	`)
	empty, decided, err = EmptyCtx(context.Background(), p2, ics, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !decided || empty {
		t.Fatalf("empty = %v decided = %v", empty, decided)
	}
}

func TestEmptyUndecidedUnderTinyBudget(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- a(X), c(X).
		?- q.
	`)
	ics := parser.MustParseICs(`
		:- a(X), !b(X).
		:- b(X), !d(X).
		:- d(X), c(X).
	`)
	// With a 1-step budget the chase cannot finish.
	_, decided, err := EmptyCtx(context.Background(), p, ics, Options{ChaseSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if decided {
		t.Fatal("tiny budget must leave the question undecided")
	}
	// With budget, the cascade a→b→d→(d∧c violation) settles it.
	empty, decided, err := EmptyCtx(context.Background(), p, ics, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !decided || !empty {
		t.Fatalf("empty = %v decided = %v", empty, decided)
	}
}

func TestRuleSatisfiableTheorem53Shape(t *testing.T) {
	// Theorem 5.3 territory: a {≠}-constraint whose inequality spans
	// two atoms. The decidable single-rule case is handled by the
	// linearization procedure: e and f must agree on their second
	// column wherever they share a key.
	ics := parser.MustParseICs(`:- e(X, Y), f(X, Z), Y != Z.`)
	// Demanding disagreement is unsatisfiable.
	r := parser.MustParseProgram(`q(X) :- e(X, Y), f(X, Z), Y < Z.`).Rules[0]
	v, err := RuleSatisfiableCtx(context.Background(), r, ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
	// Demanding agreement is satisfiable.
	r2 := parser.MustParseProgram(`q(X) :- e(X, Y), f(X, Z), Y = Z.`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), r2, ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
	// Distinct keys are unconstrained.
	r3 := parser.MustParseProgram(`q(X) :- e(X, Y), f(W, Z), Y < Z.`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), r3, ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
}

func TestRuleSatisfiableFDTheorem55Shape(t *testing.T) {
	// Theorem 5.5's constraint shape: a functional dependency with ≠.
	ics := parser.MustParseICs(`:- e(X, Y1, Z1), e(X, Y2, Z2), Z1 != Z2.`)
	r := parser.MustParseProgram(`q(X) :- e(X, A, B), e(X, C, D), B < D.`).Rules[0]
	v, err := RuleSatisfiableCtx(context.Background(), r, ics, Options{})
	if err != nil || v != Unsatisfiable {
		t.Fatalf("verdict = %v, err = %v", v, err)
	}
	r2 := parser.MustParseProgram(`q(X) :- e(X, A, B), e(X, C, D), A < C.`).Rules[0]
	v, err = RuleSatisfiableCtx(context.Background(), r2, ics, Options{})
	if err != nil || v != Satisfiable {
		t.Fatalf("only the last column is functionally determined: verdict = %v, err = %v", v, err)
	}
}

// A linearization is realized relative to its neighbouring constants
// and of their kind: a variable below -5e9 gets a number below it, one
// above a string gets a string. Each rule here is satisfiable; values
// interpolated from a fixed numeric floor used to miss all of them.
func TestRuleSatisfiableRealizesAroundConstants(t *testing.T) {
	for _, c := range []struct{ rule, ics string }{
		{`p(X) :- e(X), X < -5000000000.`, ``},
		{`p(X) :- e(X), X > "a".`, ``},
		{`p(X, Y) :- e(X), e(Y), X > "a", Y > X.`, ``},
		{`p(X) :- e(X), X > 1e300.`, ``},
		{`p(X) :- e(X), X > "a".`, `:- e(X), X < "b".`}, // X above "b" too
		{`p(X, Y) :- e(X), e(Y), X > 2, Y > X, Y < "a".`, ``},
	} {
		r := parser.MustParseProgram(c.rule).Rules[0]
		v, err := RuleSatisfiableCtx(context.Background(), r, parser.MustParseICs(c.ics), Options{})
		if err != nil || v != Satisfiable {
			t.Errorf("%s with {%s}: verdict = %v, err = %v; want satisfiable", c.rule, c.ics, v, err)
		}
	}
}

// A linearization the solver deems consistent (the order is dense in
// its eyes) but no value realizes — no string lies strictly between
// "a" and "a\x00" — leaves the verdict Unknown, never Unsatisfiable.
func TestRuleSatisfiableUnrealizableIsUnknown(t *testing.T) {
	r := parser.MustParseProgram(`p(X) :- e(X).`).Rules[0]
	r.Cmp = []ast.Cmp{ast.NewCmp(ast.V("X"), ast.GT, ast.S("a")), ast.NewCmp(ast.V("X"), ast.LT, ast.S("a\x00"))}
	v, err := RuleSatisfiableCtx(context.Background(), r, nil, Options{})
	if v != Unknown || err == nil {
		t.Fatalf("verdict = %v, err = %v; want Unknown with a reason", v, err)
	}
}
