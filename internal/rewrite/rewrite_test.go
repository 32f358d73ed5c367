package rewrite

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/order"
	"repro/internal/parser"
)

func TestNormalizeRuleDropsUnsatisfiable(t *testing.T) {
	for _, src := range []string{
		`p(X, Y) :- e(X, Y), X < Y, Y < X.`,
		`q(X) :- e(X), X < 0, X > -0.`, // the parser keeps -0; it is the constant 0
	} {
		r := parser.MustParseProgram(src).Rules[0]
		if _, ok := NormalizeRule(r); ok {
			t.Errorf("%s: rule with contradictory order atoms must be dropped", src)
		}
	}
}

func TestNormalizeRuleSubstitutesEqualities(t *testing.T) {
	r := parser.MustParseProgram(`p(X, Y) :- e(X, Y), X = Y.`).Rules[0]
	nr, ok := NormalizeRule(r)
	if !ok {
		t.Fatal("rule must survive")
	}
	// After substitution the head should use a single variable in both
	// positions and the equality atom should vanish.
	if !nr.Head.Args[0].Equal(nr.Head.Args[1]) {
		t.Fatalf("equality not substituted: %s", nr)
	}
	if len(nr.Cmp) != 0 {
		t.Fatalf("trivial equality kept: %s", nr)
	}
}

func TestNormalizeRuleSubstitutesPinnedConstant(t *testing.T) {
	r := parser.MustParseProgram(`p(X) :- e(X), X >= 5, X <= 5.`).Rules[0]
	nr, ok := NormalizeRule(r)
	if !ok {
		t.Fatal("rule must survive")
	}
	if !nr.Head.Args[0].Equal(ast.N(5)) {
		t.Fatalf("pinned variable not replaced by constant: %s", nr)
	}
}

func TestNormalizeRuleDropsRedundantAtoms(t *testing.T) {
	r := parser.MustParseProgram(`p(X, Z) :- e(X, Y, Z), X < Y, Y < Z, X < Z.`).Rules[0]
	nr, ok := NormalizeRule(r)
	if !ok {
		t.Fatal("rule must survive")
	}
	if len(nr.Cmp) != 2 {
		t.Fatalf("X < Z should be pruned as implied, got %s", nr)
	}
}

func TestNormalizeRuleGroundComparisons(t *testing.T) {
	r, ok := NormalizeRule(parser.MustParseProgram(`p(X) :- e(X), 1 < 2.`).Rules[0])
	if !ok {
		t.Fatal("1 < 2 is a tautology; rule survives")
	}
	if len(r.Cmp) != 0 {
		t.Fatalf("ground truth kept: %s", r)
	}
	if _, ok := NormalizeRule(parser.MustParseProgram(`p(X) :- e(X), 2 < 1.`).Rules[0]); ok {
		t.Fatal("2 < 1 falsifies the rule")
	}
}

func TestNormalizeOrderProgram(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X) :- e(X), X < 3, X > 5.
		q(X) :- e(X), X < 3.
		?- q.
	`)
	np := NormalizeOrder(p)
	if len(np.Rules) != 1 || np.Rules[0].Head.Pred != "q" {
		t.Fatalf("normalization wrong: %s", np)
	}
}

func TestPlanICsClassification(t *testing.T) {
	plans := PlanICs(parser.MustParseICs(`
		:- e(X, Y), e(Y, Z), X < Y.
		:- succ(X, Y), !dom(X).
	`))
	if len(plans) != 2 {
		t.Fatalf("got %d plans", len(plans))
	}
	for i, pl := range plans {
		if pl.Index != i || pl.Unsupported || len(pl.ResidueCmps) != 0 || len(pl.Pairs) != 1 {
			t.Fatalf("plan %d: %+v, want one local pair", i, pl)
		}
	}
	if lp := plans[0].Pairs[0]; lp.OrderAtom == nil || lp.Anchor.Pred != "e" {
		t.Fatalf("pair 0 wrong: %s", lp)
	}
	if lp := plans[1].Pairs[0]; lp.NegEDB == nil || lp.NegEDB.Pred != "dom" || lp.Anchor.Pred != "succ" {
		t.Fatalf("pair 1 wrong: %s", lp)
	}
}

func TestPlanICsNonLocal(t *testing.T) {
	// X < Z spans two atoms: not local (the paper's own example), so it
	// is carried as a residue.
	pl := PlanICs(parser.MustParseICs(`:- e(X, Y), e(Y, Z), X < Z.`))[0]
	if pl.Unsupported || len(pl.Pairs) != 0 || len(pl.ResidueCmps) != 1 || pl.ResidueCmps[0].String() != "X < Z" {
		t.Fatalf("X < Z: %+v, want it as the one residue order atom", pl)
	}
	// A non-local negated atom is the undecidable territory of Theorem
	// 5.4: the constraint is not used at all.
	pl = PlanICs(parser.MustParseICs(`:- e(X, Y), !f(Y, Z).`))[0]
	if !pl.Unsupported || len(pl.Pairs) != 0 {
		t.Fatalf("!f(Y, Z): %+v, want unsupported", pl)
	}
}

// rewriteLocal runs the Section 4.2 rewriting as the optimizer does,
// returning the pairs that drove it.
func rewriteLocal(p *ast.Program, ics []ast.IC) (*ast.Program, []LocalPair) {
	plans := PlanICs(ics)
	var pairs []LocalPair
	for _, pl := range plans {
		if !pl.Unsupported {
			pairs = append(pairs, pl.Pairs...)
		}
	}
	return RewriteLocalPlanned(p, plans), pairs
}

func TestRewriteLocalSplitsOnOrderAtom(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- e(X, Y).
		?- p.
	`)
	ics := parser.MustParseICs(`:- e(X, Y), X < Y.`)
	rp, pairs := rewriteLocal(p, ics)
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	// The rule splits into X < Y and X >= Y branches.
	if len(rp.Rules) != 2 {
		t.Fatalf("got %d rules, want 2:\n%s", len(rp.Rules), rp)
	}
	var sawLT, sawGE bool
	for _, r := range rp.Rules {
		set := order.NewSet(r.Cmp...)
		if set.Implies(ast.NewCmp(r.Pos[0].Args[0], ast.LT, r.Pos[0].Args[1])) {
			sawLT = true
		}
		if set.Implies(ast.NewCmp(r.Pos[0].Args[0], ast.GE, r.Pos[0].Args[1])) {
			sawGE = true
		}
	}
	if !sawLT || !sawGE {
		t.Fatalf("branches wrong:\n%s", rp)
	}
}

func TestRewriteLocalSplitsOnNegEDB(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- succ(X, Y).
		?- p.
	`)
	ics := parser.MustParseICs(`:- succ(X, Y), !dom(X).`)
	rp, _ := rewriteLocal(p, ics)
	if len(rp.Rules) != 2 {
		t.Fatalf("got %d rules, want 2:\n%s", len(rp.Rules), rp)
	}
	var sawPos, sawNeg bool
	for _, r := range rp.Rules {
		for _, a := range r.Pos {
			if a.Pred == "dom" {
				sawPos = true
			}
		}
		for _, a := range r.Neg {
			if a.Pred == "dom" {
				sawNeg = true
			}
		}
	}
	if !sawPos || !sawNeg {
		t.Fatalf("case split incomplete:\n%s", rp)
	}
}

func TestRewriteLocalAlreadyDeterminedNoSplit(t *testing.T) {
	// The rule already carries X < Y: no split needed.
	p := parser.MustParseProgram(`
		p(X, Y) :- e(X, Y), X < Y.
		?- p.
	`)
	ics := parser.MustParseICs(`:- e(X, Y), X < Y.`)
	rp, _ := rewriteLocal(p, ics)
	if len(rp.Rules) != 1 {
		t.Fatalf("determined literal must not split:\n%s", rp)
	}
}

func TestRewriteLocalPreservesSemanticsOnConsistentDB(t *testing.T) {
	p := parser.MustParseProgram(`
		reach(X, Y) :- e(X, Y).
		reach(X, Y) :- e(X, Z), reach(Z, Y).
		?- reach.
	`)
	ics := parser.MustParseICs(`:- e(X, Y), X >= Y.`)
	rp, _ := rewriteLocal(p, ics)
	// Consistent DB: strictly increasing edges only.
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`e(1, 2). e(2, 3). e(2, 5).`))
	want, _, err := eval.EvalCtx(context.Background(), p, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.EvalCtx(context.Background(), rp, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, g := want.SortedFacts("reach"), got.SortedFacts("reach")
	if strings.Join(w, ",") != strings.Join(g, ",") {
		t.Fatalf("semantics changed:\n%v\nvs\n%v", w, g)
	}
}

func TestRewriteLocalMultipleICs(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- e(X, Y), f(Y).
		?- p.
	`)
	ics := parser.MustParseICs(`
		:- e(X, Y), X < Y.
		:- e(X, Y), !g(Y).
	`)
	rp, pairs := rewriteLocal(p, ics)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// Each rule splits on both: 2 × 2 = 4 branches.
	if len(rp.Rules) != 4 {
		t.Fatalf("got %d rules, want 4:\n%s", len(rp.Rules), rp)
	}
}
