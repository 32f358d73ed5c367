package lint

import (
	"context"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/emptiness"
	"repro/internal/parser"
)

// respell appends "_n" to some variables — the spelling renaming apart
// produces — so that fuzzed programs mix X and X_1 in the ways that
// once made a renamed copy share a name with the rule it was renamed
// apart from. Counting variables by first occurrence in each rule or
// constraint, across the whole unit, variable i is picked by bit i%6
// of mask; n is 1 plus mask's top two bits.
func respell(u *parser.Unit, mask uint8) {
	suffix := "_" + strconv.Itoa(1+int(mask>>6))
	i := 0
	ren := func(vars []string) func(string) string {
		picked := map[string]bool{}
		for _, v := range vars {
			picked[v] = mask&(1<<(i%6)) != 0
			i++
		}
		return func(v string) string {
			if picked[v] {
				return v + suffix
			}
			return v
		}
	}
	for j, r := range u.Program.Rules {
		u.Program.Rules[j] = ast.RenameRule(r, ren(r.Vars()))
	}
	for j, ic := range u.ICs {
		u.ICs[j] = ast.RenameIC(ic, ren(ic.Vars()))
	}
}

// FuzzLint asserts the linter's contracts on arbitrary inputs, their
// variables partly respelled in the "_n" shape: it returns, it never
// panics, and its verdicts are deterministic — two runs over the same
// parsed unit produce identical findings (budgets are step counts, not
// wall-clock, so this must hold exactly).
func FuzzLint(f *testing.F) {
	f.Add(`
p(X, Y) :- a(X, Y).
p(X, Y) :- a(X, Z), p(Z, Y).
?- p.
:- a(X, Y), b(Y, Z).
`, uint8(0))
	f.Add(`
p(X) :- a(X, Y), b(Y, X).
q(X) :- p(X).
?- q.
:- a(X, Y), b(Y, Z).
a(1, 2).
`, uint8(0))
	f.Add(`
s(X) :- e(X, Y).
s(X) :- e(X, Y), f(Y, Y).
narrow(X) :- e(X, Y), X > 0, Y < 5.
?- s.
:- e(X, Y), X > Y, !g(X).
:- f(X, Y), X < Z, h(Z, Z).
`, uint8(0))
	f.Add(`q(X) :- a(X).
q(X) :- a(X), a(X).
?- q.
:- a(X), !b(X, X).
:- b(X, Y), X >= Y.`, uint8(0))
	// Satisfiable only below a large negative number or above a string.
	f.Add(`p(X) :- e(X), X < -5000000000.
?- p.`, uint8(0))
	f.Add(`p(X) :- e(X), X > "a".
?- p.`, uint8(0))
	f.Add(`p(X, Y) :- e(X), e(Y), X > "a", Y > X.
?- p.`, uint8(0))

	// Renaming apart once met these and never returned: the first from
	// the optimizer's local-atom split, the second from L3's subsumption
	// check.
	f.Add("p(X_1, Y_1) :- e(X_1, Y_1), q(Y_1).\n?- p.\n:- e(X, Y), Y < X.", uint8(0))
	f.Add("h(A) :- e(A, X_1), f(X_1), k(A).\nh(A) :- e(A, X), f(X).\n?- h.", uint8(0))
	f.Add("h(A) :- e(A, X), f(X), k(A).\nh(A) :- e(A, X), f(X).\n?- h.", uint8(2))

	satBudget = emptiness.Options{ChaseSteps: 200, MaxLinearizations: 500}
	f.Cleanup(func() { satBudget = emptiness.Options{} })
	f.Fuzz(func(t *testing.T, src string, mask uint8) {
		unit, err := parser.Parse(src)
		if err != nil {
			return
		}
		respell(unit, mask)
		run := func() *Report {
			done := make(chan *Report, 1)
			go func() { done <- Run(context.Background(), unit.Program, unit.ICs, unit.Facts, Options{}) }()
			select {
			case rep := <-done:
				return rep
			case <-time.After(10 * time.Second):
				t.Fatalf("lint did not return on %q respelled by %d", src, mask)
				return nil
			}
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.Findings, b.Findings) {
			t.Fatalf("nondeterministic findings for %q:\n%v\nvs\n%v", src, a.Findings, b.Findings)
		}
		if a.Errors+a.Warnings+a.Infos != len(a.Findings) {
			t.Fatalf("severity counts (%d+%d+%d) disagree with findings (%d)",
				a.Errors, a.Warnings, a.Infos, len(a.Findings))
		}
	})
}
