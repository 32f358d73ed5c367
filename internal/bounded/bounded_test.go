package bounded

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return unit.Program
}

// The classical bounded example: whatever anyone buys, a trendy person
// buys too. One unfolding step of the recursive rule already collapses
// (witness depth 2), so buys is equivalent to two flat rules.
const trendySrc = `
buys(X, Y) :- likes(X, Y).
buys(X, Y) :- trendy(X), buys(Z, Y).
?- buys.
`

func TestAnalyzeTrendyBounded(t *testing.T) {
	p := parse(t, trendySrc)
	as := Analyze(p)
	if len(as) != 1 {
		t.Fatalf("got %d analyses, want 1: %+v", len(as), as)
	}
	a := as[0]
	if a.Pred != "buys" || a.Verdict != Bounded {
		t.Fatalf("got %s %s (%s), want buys bounded", a.Pred, a.Verdict, a.Reason)
	}
	if a.Depth != 2 {
		t.Errorf("witness depth = %d, want 2", a.Depth)
	}
	if !a.Linear {
		t.Errorf("trendy program should classify as linear")
	}
	if len(a.Disjuncts) != 2 {
		t.Fatalf("witness UCQ has %d disjuncts, want 2: %v", len(a.Disjuncts), a.Disjuncts)
	}
	for _, d := range a.Disjuncts {
		for _, at := range d.Pos {
			if at.Pred == "buys" {
				t.Errorf("witness disjunct still recursive: %v", d)
			}
		}
	}
}

func TestRewriteTrendy(t *testing.T) {
	p := parse(t, trendySrc)
	res, err := Rewrite(p, Options{})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if len(res.Eliminated) != 1 || res.Eliminated[0] != "buys" {
		t.Fatalf("Eliminated = %v, want [buys]", res.Eliminated)
	}
	for _, r := range res.Program.Rules {
		for _, a := range r.Pos {
			if a.Pred == "buys" {
				t.Fatalf("rewritten program still recursive: %v", r)
			}
		}
		if err := r.Safe(); err != nil {
			t.Fatalf("unsafe rewritten rule %v: %v", r, err)
		}
	}
	if res.Program.Query != "buys" {
		t.Errorf("query lost: %q", res.Program.Query)
	}
}

// Transitive closure is the canonical unbounded program: every depth
// adds genuinely longer chains, so the honest verdict is
// not-bounded-within-budget, never bounded.
func TestAnalyzeTCNotBounded(t *testing.T) {
	p := parse(t, `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
?- path.
`)
	as := Analyze(p)
	if len(as) != 1 || as[0].Verdict != NotWithinBudget {
		t.Fatalf("got %+v, want path not-bounded-within-budget", as)
	}
	if as[0].Depth != 3 {
		t.Errorf("deepest level tried = %d, want maxDepth 3", as[0].Depth)
	}
	if _, err := Rewrite(p, Options{}); !errors.Is(err, ErrNotBounded) {
		t.Fatalf("Rewrite err = %v, want ErrNotBounded", err)
	}
}

// Rewrite must surface the per-predicate analyses alongside
// ErrNotBounded so callers can report the honest verdicts.
func TestRewriteNotBoundedCarriesAnalyses(t *testing.T) {
	p := parse(t, `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
?- path.
`)
	res, err := Rewrite(p, Options{})
	if !errors.Is(err, ErrNotBounded) {
		t.Fatalf("err = %v, want ErrNotBounded", err)
	}
	if res == nil || len(res.Analyses) != 1 {
		t.Fatalf("Result with analyses must accompany ErrNotBounded, got %+v", res)
	}
	if res.Program != nil {
		t.Errorf("no program should be emitted on fallback")
	}
	if !strings.Contains(err.Error(), "path") {
		t.Errorf("error should name the predicate: %v", err)
	}
}

// Mutual recursion is outside the procedure's scope: three-valued
// honesty demands Unknown, not a guess either way.
func TestAnalyzeMutualRecursionUnknown(t *testing.T) {
	p := parse(t, `
even(X) :- zero(X).
even(X) :- succ(Y, X), odd(Y).
odd(X) :- succ(Y, X), even(Y).
?- even.
`)
	as := Analyze(p)
	// Neither even nor odd is SELF-recursive, so there is nothing to
	// analyze at all.
	if len(as) != 0 {
		t.Fatalf("got %+v, want no self-recursive candidates", as)
	}

	// A self-recursive predicate entangled with another cycle member
	// must come back Unknown.
	p2 := parse(t, `
p(X) :- base(X).
p(X) :- link(X, Y), p(Y).
p(X) :- q(X).
q(X) :- hop(X, Y), p(Y).
?- p.
`)
	as2 := Analyze(p2)
	if len(as2) != 1 || as2[0].Verdict != Unknown {
		t.Fatalf("got %+v, want p unknown (mutual recursion)", as2)
	}
	if !strings.Contains(as2[0].Reason, "q") {
		t.Errorf("reason should name the cycle partner: %q", as2[0].Reason)
	}
}

// Negated subgoals put a predicate outside the containment procedure.
func TestAnalyzeNegationUnknown(t *testing.T) {
	p := parse(t, `
keeps(X, Y) :- owns(X, Y), !sold(X, Y).
keeps(X, Y) :- hoards(X), keeps(Z, Y), !sold(X, Y).
?- keeps.
`)
	as := Analyze(p)
	if len(as) != 1 || as[0].Verdict != Unknown {
		t.Fatalf("got %+v, want keeps unknown (negation)", as)
	}
}

// A piecewise-linear program with two recursive rules that is bounded,
// but only at depth 3 — the ladder must keep climbing past the first
// failed witness instead of giving up.
func TestAnalyzePiecewiseLinearDepth3(t *testing.T) {
	p := parse(t, `
q(X, Y) :- base(X, Y).
q(X, Y) :- left(X), q(Z, Y).
q(X, Y) :- right(Y), q(X, Z).
?- q.
`)
	as := Analyze(p)
	if len(as) != 1 || as[0].Verdict != Bounded {
		t.Fatalf("got %+v, want q bounded", as)
	}
	if as[0].Depth != 3 {
		t.Errorf("witness depth = %d, want 3", as[0].Depth)
	}
	if !as[0].Linear {
		t.Errorf("each rule has one q-subgoal; should classify linear")
	}
}

// Nonlinear (two recursive subgoals) but still bounded: the doubled
// rule adds nothing over one application.
func TestAnalyzeNonlinearBounded(t *testing.T) {
	p := parse(t, `
r(X) :- seed(X).
r(X) :- glue(X), r(Y), r(Z).
?- r.
`)
	as := Analyze(p)
	if len(as) != 1 || as[0].Verdict != Bounded {
		t.Fatalf("got %+v, want r bounded", as)
	}
	if as[0].Linear {
		t.Errorf("two r-subgoals should classify nonlinear")
	}
}

// Order atoms ride along soundly via ContainedOrder.
func TestAnalyzeWithOrderAtoms(t *testing.T) {
	p := parse(t, `
cheap(X, Y) :- price(X, Y), Y < 100.
cheap(X, Y) :- fad(X), cheap(Z, Y), Y < 100.
?- cheap.
`)
	as := Analyze(p)
	if len(as) != 1 {
		t.Fatalf("got %d analyses, want 1", len(as))
	}
	if as[0].Verdict != Bounded {
		t.Fatalf("got %s (%s), want bounded", as[0].Verdict, as[0].Reason)
	}
}

// Budget exhaustion must surface as NotWithinBudget with the projected
// blowup named, before any containment call runs.
func TestAnalyzeBudgetExhaustion(t *testing.T) {
	// 8 exit rules and a rule with three recursive subgoals project
	// 8^3 = 512 depth-2 disjuncts, far past the default budget of 48.
	src := `
big(X) :- s1(X).
big(X) :- s2(X).
big(X) :- s3(X).
big(X) :- s4(X).
big(X) :- s5(X).
big(X) :- s6(X).
big(X) :- s7(X).
big(X) :- s8(X).
big(X) :- g(X), big(A), big(B), big(C).
?- big.
`
	p := parse(t, src)
	as := Analyze(p)
	if len(as) != 1 || as[0].Verdict != NotWithinBudget {
		t.Fatalf("got %+v, want big not-bounded-within-budget", as)
	}
	if !strings.Contains(as[0].Reason, "budget") {
		t.Errorf("reason should mention the budget: %q", as[0].Reason)
	}
}

// A predicate with recursive rules but no exit rule is provably empty
// (bounded with an empty witness), but Rewrite must leave it in place:
// deleting its last rule would flip it from IDB to EDB classification.
func TestRewriteKeepsExitlessPredicate(t *testing.T) {
	p := parse(t, `
loop(X) :- tick(X, Y), loop(Y).
ans(X) :- seen(X).
ans(X) :- ans(Y), seen(X).
?- ans.
`)
	res, err := Rewrite(p, Options{})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	for _, a := range res.Analyses {
		if a.Pred == "loop" && (a.Verdict != Bounded || len(a.Disjuncts) != 0) {
			t.Errorf("loop: got %s with %d disjuncts, want bounded/empty", a.Verdict, len(a.Disjuncts))
		}
	}
	if len(res.Eliminated) != 1 || res.Eliminated[0] != "ans" {
		t.Fatalf("Eliminated = %v, want [ans] only", res.Eliminated)
	}
	kept := false
	for _, r := range res.Program.Rules {
		if r.Head.Pred == "loop" {
			kept = true
		}
	}
	if !kept {
		t.Errorf("exitless loop rule must survive the rewrite")
	}
}

// The input program is never mutated.
func TestRewriteDoesNotMutateInput(t *testing.T) {
	p := parse(t, trendySrc)
	before := p.String()
	if _, err := Rewrite(p, Options{}); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if p.String() != before {
		t.Errorf("input mutated:\nbefore %s\nafter  %s", before, p.String())
	}
}
