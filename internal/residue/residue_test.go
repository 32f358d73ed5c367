package residue

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

func TestComputeExample31(t *testing.T) {
	// Example 3.1: rule r3 with the start/end-point constraint.
	p := parser.MustParseProgram(`
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		path(X, Y) :- step(X, Y).
		?- goodPath.
	`)
	ics := parser.MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
	residues := Compute(p.Rules[0], ics[0])
	// Expected: mapping both startPoint and endPoint leaves residue
	// Y <= X (over rule variables); partial mappings leave larger
	// residues.
	var full *Residue
	for i, res := range residues {
		if len(res.Pos) == 0 && len(res.Cmp) == 1 {
			full = &residues[i]
		}
	}
	if full == nil {
		t.Fatalf("no fully-mapped residue found in %v", residues)
	}
	c := full.Cmp[0]
	if c.Op != ast.LE || !c.Left.Equal(ast.V("Y")) || !c.Right.Equal(ast.V("X")) {
		t.Fatalf("residue = %v, want Y <= X", c)
	}
}

func TestOptimizeRuleAddsNegatedOrderResidue(t *testing.T) {
	// The optimization of Example 3.1: Y > X is added to r3.
	p := parser.MustParseProgram(`
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		path(X, Y) :- step(X, Y).
		?- goodPath.
	`)
	ics := parser.MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
	rs, dropped := OptimizeRule(p.Rules[0], ics)
	if dropped {
		t.Fatal("rule must survive")
	}
	if len(rs) != 1 {
		t.Fatalf("got %d rules, want 1: %v", len(rs), rs)
	}
	found := false
	for _, c := range rs[0].Cmp {
		if c.Op == ast.GT && c.Left.Equal(ast.V("Y")) && c.Right.Equal(ast.V("X")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Y > X not added: %s", rs[0])
	}
}

func TestOptimizeRuleDropsUnsatisfiableRule(t *testing.T) {
	// ic :- a(X, Y), b(Y, Z).  A rule joining a and b through the same
	// variable can never fire.
	r := parser.MustParseProgram(`
		bad(X, Z) :- a(X, Y), b(Y, Z).
		?- bad.
	`).Rules[0]
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	_, dropped := OptimizeRule(r, ics)
	if !dropped {
		t.Fatal("rule should be dropped: the constraint maps fully into its body")
	}
}

func TestOptimizeRuleKeepsSatisfiableJoin(t *testing.T) {
	// Same shapes but no shared join variable: the constraint does NOT
	// map fully (b's first argument must equal a's second).
	r := parser.MustParseProgram(`
		ok(X, Z) :- a(X, Y), b(W, Z).
		?- ok.
	`).Rules[0]
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	rs, dropped := OptimizeRule(r, ics)
	if dropped {
		t.Fatal("rule should survive: join variable differs")
	}
	if len(rs) != 1 {
		t.Fatalf("got %d rules", len(rs))
	}
}

func TestOptimizeRuleAddsPositiveAtomFromNegatedResidue(t *testing.T) {
	// ic :- e(X, Y), !dom(X). For a rule with e(A, B) in its body, the
	// residue !dom(A) means dom(A) must hold; it is attached positively.
	r := parser.MustParseProgram(`
		p(A, B) :- e(A, B).
		?- p.
	`).Rules[0]
	ics := parser.MustParseICs(`:- e(X, Y), !dom(X).`)
	rs, dropped := OptimizeRule(r, ics)
	if dropped || len(rs) != 1 {
		t.Fatalf("unexpected shape: dropped=%v rules=%v", dropped, rs)
	}
	found := false
	for _, a := range rs[0].Pos {
		if a.Pred == "dom" && a.Args[0].Equal(ast.V("A")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("dom(A) not attached: %s", rs[0])
	}
}

func TestOptimizeRuleAddsNegatedAtomFromPositiveResidue(t *testing.T) {
	// ic :- e(X, Y), bad(X). For a rule with e(A, B), the residue
	// bad(A) must be absent: attach !bad(A).
	r := parser.MustParseProgram(`
		p(A, B) :- e(A, B).
		?- p.
	`).Rules[0]
	ics := parser.MustParseICs(`:- e(X, Y), bad(X).`)
	rs, dropped := OptimizeRule(r, ics)
	if dropped || len(rs) != 1 {
		t.Fatalf("unexpected shape: dropped=%v rules=%v", dropped, rs)
	}
	found := false
	for _, a := range rs[0].Neg {
		if a.Pred == "bad" && a.Args[0].Equal(ast.V("A")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("!bad(A) not attached: %s", rs[0])
	}
}

func TestOptimizeRuleOrderContradictionDrops(t *testing.T) {
	// ic :- step(X, Y), X >= Y  ⇒ every step must increase. A rule that
	// demands a decreasing step is unsatisfiable.
	r := parser.MustParseProgram(`
		down(X, Y) :- step(X, Y), X > Y.
		?- down.
	`).Rules[0]
	ics := parser.MustParseICs(`:- step(X, Y), X >= Y.`)
	_, dropped := OptimizeRule(r, ics)
	if !dropped {
		t.Fatal("rule demanding X > Y contradicts the added X < Y")
	}
}

func TestOptimizeRuleVariableRenamingApart(t *testing.T) {
	// The ic reuses the rule's variable names; renaming apart must
	// prevent spurious capture.
	r := parser.MustParseProgram(`
		p(X, Y) :- startPoint(X), endPoint(Y).
		?- p.
	`).Rules[0]
	ics := parser.MustParseICs(`:- startPoint(Y), endPoint(X), X <= Y.`)
	rs, dropped := OptimizeRule(r, ics)
	if dropped || len(rs) != 1 {
		t.Fatalf("dropped=%v rules=%v", dropped, rs)
	}
	// ic maps startPoint(icY)->startPoint(X), endPoint(icX)->endPoint(Y),
	// residue icX <= icY becomes Y <= X; negation X < Y... expressed as
	// Y > X.
	found := false
	for _, c := range rs[0].Cmp {
		if c.Key() == ast.NewCmp(ast.V("Y"), ast.GT, ast.V("X")).Key() {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected Y > X after renaming apart, got %s", rs[0])
	}
}

func TestOptimizeProgramPreservesSemantics(t *testing.T) {
	// On a database satisfying the ics, the optimized program must
	// produce the same answers.
	src := `
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`
	p := parser.MustParseProgram(src)
	ics := parser.MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
	opt := Optimize(p, ics)

	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`
		step(1, 2). step(2, 3). step(3, 4). step(4, 5).
		startPoint(1). startPoint(3).
		endPoint(4). endPoint(5).
	`))
	want, _, err := eval.QueryCtx(context.Background(), p, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.QueryCtx(context.Background(), opt, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("answer sizes differ: %d vs %d", len(want), len(got))
	}
	wantIdb, _, _ := eval.EvalCtx(context.Background(), p, db, eval.Options{})
	gotIdb, _, _ := eval.EvalCtx(context.Background(), opt, db, eval.Options{})
	w := wantIdb.SortedFacts("goodPath")
	g := gotIdb.SortedFacts("goodPath")
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("answers differ: %v vs %v", w, g)
		}
	}
}

func TestPerRuleMethodMissesCrossRuleInteraction(t *testing.T) {
	// Section 3, ics (1) and (2): the fact that paths must start at
	// >= 100 is invisible per rule — the baseline cannot add X >= 100
	// to the path rules, because the interaction spans startPoint
	// (in r3) and step (in r1/r2). This test documents the limitation
	// the paper's algorithm overcomes.
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	ics := parser.MustParseICs(`
		:- startPoint(X), step(X, Y), X < 100.
		:- step(X, Y), X >= Y.
	`)
	opt := Optimize(p, ics)
	for _, r := range opt.Rules {
		if r.Head.Pred != "path" {
			continue
		}
		for _, c := range r.Cmp {
			if c.Right.Equal(ast.N(100)) || c.Left.Equal(ast.N(100)) {
				t.Fatalf("per-rule optimizer unexpectedly derived the threshold: %s", r)
			}
		}
	}
}

func TestComputeDeduplicates(t *testing.T) {
	// Two identical subgoals produce identical residues exactly once.
	r := parser.MustParseProgram(`
		p(X) :- a(X, Y), a(X, Y).
		?- p.
	`).Rules[0]
	ics := parser.MustParseICs(`:- a(X, Y), c(Y).`)
	residues := Compute(r, ics[0])
	seen := map[string]int{}
	for _, res := range residues {
		seen[res.key()]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("duplicate residue %s (%d times)", k, n)
		}
	}
}

func TestResidueEmptyAndKey(t *testing.T) {
	if !(Residue{}).Empty() {
		t.Fatal("zero residue is empty")
	}
	r1 := Residue{Pos: []ast.Atom{ast.NewAtom("a", ast.V("X"))}}
	if r1.Empty() {
		t.Fatal("non-empty residue misreported")
	}
	r2 := Residue{Cmp: []ast.Cmp{ast.NewCmp(ast.V("X"), ast.LT, ast.V("Y"))}}
	if r1.key() == r2.key() {
		t.Fatal("distinct residues must have distinct keys")
	}
}
