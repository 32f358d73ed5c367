package rewrite

import (
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

func TestOrderSummariesMonotonePath(t *testing.T) {
	// path built from increasing steps: summary must include A0 < A1.
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y), X < Y.
		path(X, Y) :- step(X, Z), X < Z, path(Z, Y).
		?- path.
	`)
	sums := OrderSummaries(p)
	s := sums["path"]
	if s == nil {
		t.Fatal("no summary for path")
	}
	found := false
	want := ast.NewCmp(ast.V("A0"), ast.LT, ast.V("A1"))
	for _, c := range s.Cmps {
		if c.Key() == want.Key() {
			found = true
		}
	}
	if !found {
		t.Fatalf("summary misses A0 < A1: %v", s.Cmps)
	}
}

func TestOrderSummariesNoFalseGuarantee(t *testing.T) {
	// One rule increases, the other decreases: nothing is guaranteed.
	p := parser.MustParseProgram(`
		conn(X, Y) :- step(X, Y), X < Y.
		conn(X, Y) :- step(X, Y), X > Y.
		?- conn.
	`)
	sums := OrderSummaries(p)
	for _, c := range sums["conn"].Cmps {
		if c.Key() == ast.NewCmp(ast.V("A0"), ast.LT, ast.V("A1")).Key() ||
			c.Key() == ast.NewCmp(ast.V("A0"), ast.GT, ast.V("A1")).Key() {
			t.Fatalf("false guarantee %v", c)
		}
	}
	// But A0 != A1 IS guaranteed (both branches imply it).
	found := false
	for _, c := range sums["conn"].Cmps {
		if c.Key() == ast.NewCmp(ast.V("A0"), ast.NE, ast.V("A1")).Key() {
			found = true
		}
	}
	if !found {
		t.Fatal("A0 != A1 should be guaranteed")
	}
}

func TestOrderSummariesThreshold(t *testing.T) {
	// Every path endpoint is >= 100 when every step source is.
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y), X >= 100, X < Y.
		path(X, Y) :- step(X, Z), X >= 100, X < Z, path(Z, Y).
		?- path.
	`)
	sums := OrderSummaries(p)
	wantA0 := ast.NewCmp(ast.V("A0"), ast.GE, ast.N(100))
	found := false
	for _, c := range sums["path"].Cmps {
		if c.Key() == wantA0.Key() {
			found = true
		}
	}
	if !found {
		t.Fatalf("summary misses A0 >= 100: %v", sums["path"].Cmps)
	}
	// A1 > 100: base case gives A1 > A0 >= 100; recursive case gives
	// A1 ... via path summary. The fixpoint should find A1 > 100.
	wantA1 := ast.NewCmp(ast.V("A1"), ast.GT, ast.N(100))
	found = false
	for _, c := range sums["path"].Cmps {
		if order.NewSet(c).Implies(wantA1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("summary misses A1 > 100: %v", sums["path"].Cmps)
	}
}

func TestStrengthenPreservesSemantics(t *testing.T) {
	src := `
		path(X, Y) :- step(X, Y), X < Y.
		path(X, Y) :- step(X, Z), X < Z, path(Z, Y).
		?- path.
	`
	p := parser.MustParseProgram(src)
	sp := Strengthen(p)
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`
		step(1, 2). step(2, 3). step(3, 1). step(3, 4).
	`))
	want, _, err := eval.Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.Eval(sp, db)
	if err != nil {
		t.Fatal(err)
	}
	w, g := want.SortedFacts("path"), got.SortedFacts("path")
	if len(w) != len(g) {
		t.Fatalf("sizes differ: %v vs %v", w, g)
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("differ at %d: %v vs %v", i, w, g)
		}
	}
}

func TestLocalPairsClassification(t *testing.T) {
	ics := parser.MustParseICs(`
		:- e(X, Y), e(Y, Z), X < Y.
		:- succ(X, Y), !dom(X).
	`)
	pairs, err := LocalPairs(ics)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	if pairs[0].OrderAtom == nil || pairs[0].Anchor.Pred != "e" {
		t.Fatalf("pair 0 wrong: %s", pairs[0])
	}
	if pairs[1].NegEDB == nil || pairs[1].NegEDB.Pred != "dom" || pairs[1].Anchor.Pred != "succ" {
		t.Fatalf("pair 1 wrong: %s", pairs[1])
	}
}

func TestLocalPairsRejectsNonLocal(t *testing.T) {
	// X < Z spans two atoms: not local (the paper's own example).
	ics := parser.MustParseICs(`:- e(X, Y), e(Y, Z), X < Z.`)
	if _, err := LocalPairs(ics); err == nil {
		t.Fatal("X < Z is not local; expected error")
	}
	if _, err := LocalPairs(parser.MustParseICs(`:- e(X, Y), !f(Y, Z).`)); err == nil {
		t.Fatal("!f(Y, Z) is not local; expected error")
	}
}

func TestRewriteLocalSplitsOnOrderAtom(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- e(X, Y).
		?- p.
	`)
	ics := parser.MustParseICs(`:- e(X, Y), X < Y.`)
	rp, pairs, err := RewriteLocal(p, ics)
	if err != nil {
		t.Fatal(err)
	}
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
	rp, _, err := RewriteLocal(p, ics)
	if err != nil {
		t.Fatal(err)
	}
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
	rp, _, err := RewriteLocal(p, ics)
	if err != nil {
		t.Fatal(err)
	}
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
	rp, _, err := RewriteLocal(p, ics)
	if err != nil {
		t.Fatal(err)
	}
	// Consistent DB: strictly increasing edges only.
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`e(1, 2). e(2, 3). e(2, 5).`))
	want, _, err := eval.Eval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.Eval(rp, db)
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
	rp, pairs, err := RewriteLocal(p, ics)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// Each rule splits on both: 2 × 2 = 4 branches.
	if len(rp.Rules) != 4 {
		t.Fatalf("got %d rules, want 4:\n%s", len(rp.Rules), rp)
	}
}
