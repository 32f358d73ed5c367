package parser

import (
	"strings"
	"testing"
)

// fuzzSeeds mirrors the examples/ corpus (quickstart, goodpath,
// transclosure, funcdep, undecidable) plus syntax-edge seeds: every
// token kind, comments, negation, order atoms, string and numeric
// constants, and a few malformed inputs that must error cleanly.
var fuzzSeeds = []string{
	// quickstart / goodpath
	`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`,
	`
		:- startPoint(X), step(X, Y), X < 100.
		:- step(X, Y), X >= Y.
	`,
	// transclosure (Figure 1)
	`
		p(X, Y) :- a(X, Y).
		p(X, Y) :- b(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		p(X, Y) :- b(X, Z), p(Z, Y).
		?- p.
		:- a(X, Y), b(Y, Z).
	`,
	// funcdep (comments, !=, <)
	`
		% two managers for one employee would be a conflict
		conflict(E) :- manages(E, M1), manages(E, M2), M1 < M2.
		boss(E, M) :- manages(E, M).
		boss(E, M) :- manages(E, X), boss(X, M).
		top(E, M) :- boss(E, M), ceo(M).
		?- top.
		:- manages(E, M1), manages(E, M2), M1 != M2.
	`,
	// undecidable (negated EDB atoms in ics)
	`
		q(X) :- a(X), c(X).
		?- q.
		:- a(X), !b(X).
	`,
	// ground facts, string and numeric constants
	`
		step(1, 2). step(2, 3). startPoint(1). endPoint(3).
		name("alice", 1). pi(3.14159). neg(-7).
	`,
	// every comparison operator
	`r(X, Y) :- e(X, Y), X < Y, X <= Y, X > 0, X >= 0, X != Y, X = X.`,
	// zero-arity atoms and empty-ish forms
	`q :- a, b. ?- q.`,
	// goal queries with bound arguments (point and mixed queries)
	`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(a, Y).
	`,
	`r(X, Y, Z) :- e(X, Y), f(Y, Z). ?- r(1, W, "end").`,
	`p(X, X) :- e(X, X). ?- p(V, V).`,
	// negative zero is zero (ast.N), so it must print as it re-parses
	`p(-0). q(X) :- p(X), X >= -0.0.`,
	// malformed inputs that must produce errors, never panics
	`p(X :-`,
	`p(X, Y) :- `,
	`:-`,
	`?-`,
	`p().`,
	`p(X) :- q(X)`,
	`"unterminated`,
	`p(X) :- X <.`,
	`%`,
	"p(X) :- q(X). \x00",
}

// FuzzParse asserts two properties over arbitrary input: (1) the
// parser never panics, and (2) accepted input round-trips — rendering
// the parsed unit back to source and re-parsing yields the same
// program, constraints, and facts (so the printer and parser agree on
// the grammar).
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		unit, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are the bug
		}
		render := renderUnit(unit)
		unit2, err := Parse(render)
		if err != nil {
			t.Fatalf("accepted input failed to re-parse after printing\ninput: %q\nprinted: %q\nerr: %v", src, render, err)
		}
		if got, want := renderUnit(unit2), render; got != want {
			t.Fatalf("print → parse → print is not a fixpoint\nfirst:  %q\nsecond: %q", want, got)
		}
	})
}

// renderUnit renders a parsed unit back to parseable source syntax.
func renderUnit(u *Unit) string {
	var b strings.Builder
	b.WriteString(u.Program.String())
	if u.Program.Query != "" {
		b.WriteString("?- " + u.Program.GoalAtom().String() + ".\n")
	}
	for _, ic := range u.ICs {
		b.WriteString(ic.String() + "\n")
	}
	for _, fact := range u.Facts {
		b.WriteString(fact.String() + ".\n")
	}
	return b.String()
}

// TestFuzzSeedsParse keeps the well-formed seeds parsing in plain test
// runs (no -fuzz flag needed).
func TestFuzzSeedsParse(t *testing.T) {
	for i, seed := range fuzzSeeds[:12] {
		if _, err := Parse(seed); err != nil {
			t.Errorf("seed %d no longer parses: %v", i, err)
		}
	}
}
