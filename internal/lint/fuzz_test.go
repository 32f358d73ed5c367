package lint

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/emptiness"
	"repro/internal/parser"
)

// FuzzLint asserts the linter's two contracts on arbitrary inputs: it
// never panics, and its verdicts are deterministic — two runs over the
// same parsed unit produce identical findings (budgets are step
// counts, not wall-clock, so this must hold exactly).
func FuzzLint(f *testing.F) {
	f.Add(`
p(X, Y) :- a(X, Y).
p(X, Y) :- a(X, Z), p(Z, Y).
?- p.
:- a(X, Y), b(Y, Z).
`)
	f.Add(`
p(X) :- a(X, Y), b(Y, X).
q(X) :- p(X).
?- q.
:- a(X, Y), b(Y, Z).
a(1, 2).
`)
	f.Add(`
s(X) :- e(X, Y).
s(X) :- e(X, Y), f(Y, Y).
narrow(X) :- e(X, Y), X > 0, Y < 5.
?- s.
:- e(X, Y), X > Y, !g(X).
:- f(X, Y), X < Z, h(Z, Z).
`)
	f.Add(`q(X) :- a(X).
q(X) :- a(X), a(X).
?- q.
:- a(X), !b(X, X).
:- b(X, Y), X >= Y.`)
	// Satisfiable only below a large negative number or above a string.
	f.Add(`p(X) :- e(X), X < -5000000000.
?- p.`)
	f.Add(`p(X) :- e(X), X > "a".
?- p.`)
	f.Add(`p(X, Y) :- e(X), e(Y), X > "a", Y > X.
?- p.`)

	opts := Options{
		Emptiness: emptiness.Options{
			ChaseSteps:        200,
			MaxLinearizations: 500,
		},
		MaxSubsumptionAtoms: 6,
	}
	f.Fuzz(func(t *testing.T, src string) {
		unit, err := parser.Parse(src)
		if err != nil {
			return
		}
		a := Run(context.Background(), unit.Program, unit.ICs, unit.Facts, opts)
		b := Run(context.Background(), unit.Program, unit.ICs, unit.Facts, opts)
		if !reflect.DeepEqual(a.Findings, b.Findings) {
			t.Fatalf("nondeterministic findings for %q:\n%v\nvs\n%v", src, a.Findings, b.Findings)
		}
		if a.Errors+a.Warnings+a.Infos != len(a.Findings) {
			t.Fatalf("severity counts (%d+%d+%d) disagree with findings (%d)",
				a.Errors, a.Warnings, a.Infos, len(a.Findings))
		}
	})
}
