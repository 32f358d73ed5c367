package qtree

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

// figure1Program is the running example of Section 4 / Figure 1.
const figure1Program = `
	p(X, Y) :- a(X, Y).
	p(X, Y) :- b(X, Y).
	p(X, Y) :- a(X, Z), p(Z, Y).
	p(X, Y) :- b(X, Z), p(Z, Y).
	?- p.
`

const figure1IC = `:- a(X, Y), b(Y, Z).`

func TestFigure1Adornments(t *testing.T) {
	// The bottom-up phase must discover exactly the three adornments
	// p1, p2, p3 of the paper.
	out, err := OptimizeCtx(context.Background(), parser.MustParseProgram(figure1Program), parser.MustParseICs(figure1IC), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := out.Tree.Res
	q := res.Spec.Query
	if got := len(res.Adorn[q]); got != 3 {
		t.Fatalf("got %d adornments for p, want 3 (p1, p2, p3):\n%v", got, res.Adorn[q])
	}
	// Count non-trivial triplets per adornment: p1 and p2 have one,
	// p3 has two.
	var counts []int
	for _, ad := range res.Adorn[q] {
		n := 0
		for _, tr := range ad.Triplets {
			if len(tr.Unmapped) < 2 { // ic has 2 atoms; non-trivial = 1 or 0 unmapped
				n++
			}
		}
		counts = append(counts, n)
	}
	got := map[int]int{}
	for _, c := range counts {
		got[c]++
	}
	if got[1] != 2 || got[2] != 1 {
		t.Fatalf("non-trivial triplet counts per adornment = %v, want two adornments with 1 and one with 2", counts)
	}
}

func TestFigure1RewrittenRules(t *testing.T) {
	// The rewritten program must be exactly the six rules s1–s6 (plus
	// wrapper rules): in particular there is NO rule combining an
	// a-edge with the b-then-a class, and no rule combining a b-edge
	// step with the a-closure class in the forbidden order.
	out, err := OptimizeCtx(context.Background(), parser.MustParseProgram(figure1Program), parser.MustParseICs(figure1IC), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Satisfiable {
		t.Fatal("query should be satisfiable")
	}
	var core, wrappers int
	for _, r := range out.Program.Rules {
		if r.Head.Pred == "p" {
			wrappers++
		} else {
			core++
		}
	}
	if core != 6 {
		t.Fatalf("got %d core rules, want 6 (s1..s6):\n%s", core, out.Program)
	}
	if wrappers != 3 {
		t.Fatalf("got %d wrapper rules, want 3 (one per root):\n%s", wrappers, out.Program)
	}
}

func TestFigure1SemanticsPreserved(t *testing.T) {
	p := parser.MustParseProgram(figure1Program)
	ics := parser.MustParseICs(figure1IC)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A database satisfying the ic: b-edges then a-edges (no a before b).
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`
		b(1, 2). b(2, 3).
		a(3, 4). a(4, 5).
	`))
	want, _, err := eval.EvalCtx(context.Background(), p, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, g := want.SortedFacts("p"), got.SortedFacts("p")
	if strings.Join(w, ";") != strings.Join(g, ";") {
		t.Fatalf("answers differ:\n%v\nvs\n%v", w, g)
	}
	if len(w) == 0 {
		t.Fatal("sanity: expected non-empty answer")
	}
}

func TestFigure1AvoidsForbiddenJoins(t *testing.T) {
	// On an inconsistent database (a-edge followed by b-edge), the
	// REWRITTEN program must not derive the paths that cross a→b,
	// demonstrating that the forbidden join was compiled away.
	out, err := OptimizeCtx(context.Background(), parser.MustParseProgram(figure1Program), parser.MustParseICs(figure1IC), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`a(1, 2). b(2, 3).`))
	idb, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range idb.SortedFacts("p") {
		if f == "p(1, 3)" {
			t.Fatal("rewritten program derived a path crossing a→b; the constraint was not incorporated")
		}
	}
	// The single-edge paths must still be there.
	facts := idb.SortedFacts("p")
	if len(facts) != 2 {
		t.Fatalf("want exactly the two single edges, got %v", facts)
	}
}

func TestFigure1Print(t *testing.T) {
	out, err := OptimizeCtx(context.Background(), parser.MustParseProgram(figure1Program), parser.MustParseICs(figure1IC), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Tree.Print()
	if !strings.Contains(s, "=== tree 1") || !strings.Contains(s, "=== tree 3") {
		t.Fatalf("expected a three-tree forest:\n%s", s)
	}
	if strings.Contains(s, "unsatisfiable") {
		t.Fatalf("forest should not be empty:\n%s", s)
	}
}

func TestExample31ResidueAttached(t *testing.T) {
	// Example 3.1: the optimizer must add Y > X to the goodPath rule.
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	ics := parser.MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range out.Program.Rules {
		hasStart := false
		for _, a := range r.Pos {
			if a.Pred == "startPoint" {
				hasStart = true
			}
		}
		if !hasStart {
			continue
		}
		for _, c := range r.Cmp {
			// Y > X over the rule's variables (names may differ).
			if c.Op == ast.GT || c.Op == ast.LT {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("residue Y > X not attached:\n%s", out.Program)
	}
}

func TestExample31SemanticsPreserved(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	ics := parser.MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Consistent DB: all end points above all start points.
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`
		step(1, 2). step(2, 3). step(3, 4). step(2, 5). step(5, 4).
		startPoint(1). startPoint(2).
		endPoint(4). endPoint(5).
	`))
	want, _, err := eval.EvalCtx(context.Background(), p, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, g := want.SortedFacts("goodPath"), got.SortedFacts("goodPath")
	if strings.Join(w, ";") != strings.Join(g, ";") {
		t.Fatalf("answers differ:\n%v\nvs\n%v", w, g)
	}
	if len(w) == 0 {
		t.Fatal("sanity: expected answers")
	}
}

func TestSection3ThresholdPushed(t *testing.T) {
	// Section 3, ics (1) and (2): the rewritten program must carry the
	// X >= 100 threshold into the recursive path predicate, so that
	// sub-100 path tuples are never derived.
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
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on a database with two chains, one far below 100.
	db := eval.NewDB()
	for i := 1; i < 40; i++ {
		db.AddFact(ast.NewAtom("step", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	for i := 100; i < 120; i++ {
		db.AddFact(ast.NewAtom("step", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	db.AddFact(ast.NewAtom("startPoint", ast.N(100)))
	db.AddFact(ast.NewAtom("endPoint", ast.N(120)))

	wantIdb, wantStats, err := eval.EvalCtx(context.Background(), p, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotIdb, gotStats, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, g := wantIdb.SortedFacts("goodPath"), gotIdb.SortedFacts("goodPath")
	if strings.Join(w, ";") != strings.Join(g, ";") {
		t.Fatalf("answers differ:\n%v\nvs\n%v", w, g)
	}
	if len(w) != 1 {
		t.Fatalf("want exactly goodPath(100, 120), got %v", w)
	}
	// The optimization claim: dramatically fewer tuples derived
	// (sub-100 paths are never built).
	if gotStats.TuplesDerived >= wantStats.TuplesDerived/2 {
		t.Fatalf("rewritten program should derive far fewer tuples: %d vs %d",
			gotStats.TuplesDerived, wantStats.TuplesDerived)
	}
}

func TestUnsatisfiableQueryDetected(t *testing.T) {
	// The constraint makes the rule body unsatisfiable: a join of a
	// and b through the same variable.
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
		t.Fatal("query should be unsatisfiable")
	}
	if len(out.Program.RulesFor("q")) != 0 {
		t.Fatalf("unsatisfiable query must have no rules:\n%s", out.Program)
	}
}

func TestRecursiveUnsatisfiability(t *testing.T) {
	// The base case is unsatisfiable, so the whole recursion is empty —
	// visible only by looking across rules: the recursive rule survives
	// per-rule analysis, but the bottom-up phase never registers an
	// adornment for it, because no adornment of its q subgoal exists.
	p := parser.MustParseProgram(`
		q(X, Y) :- a(X, Z), b(Z, Y).
		q(X, Y) :- c(X, Z), q(Z, Y).
		?- q.
	`)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Satisfiable {
		t.Fatal("query should be unsatisfiable: the recursion has no consistent base")
	}
}

func TestNegatedICLocal(t *testing.T) {
	// ic: every edge source must be in dom. A rule that requires a
	// source NOT in dom is unsatisfiable after the case split.
	p := parser.MustParseProgram(`
		q(X, Y) :- e(X, Y), !dom(X).
		ok(X, Y) :- e(X, Y).
		?- q.
	`)
	ics := parser.MustParseICs(`:- e(X, Y), !dom(X).`)
	// Wait: the ic says e(X,Y) ∧ ¬dom(X) is forbidden, so the rule q
	// can never fire on a consistent database.
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out.Satisfiable {
		t.Fatalf("q should be unsatisfiable:\n%s", out.Program)
	}
}

func TestNegatedICLocalPositiveSide(t *testing.T) {
	// Same constraint, but the rule requires dom(X): satisfiable.
	p := parser.MustParseProgram(`
		q(X, Y) :- e(X, Y), dom(X).
		?- q.
	`)
	ics := parser.MustParseICs(`:- e(X, Y), !dom(X).`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Satisfiable {
		t.Fatal("q should be satisfiable")
	}
}

func TestNonLocalNegationWarned(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- e(X, Y).
		?- q.
	`)
	ics := parser.MustParseICs(`:- e(X, Y), !f(Y, Z).`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Warnings) == 0 {
		t.Fatal("non-local negated atom should produce a warning")
	}
	if !out.Satisfiable {
		t.Fatal("skipping the constraint must leave the query satisfiable")
	}
}

func TestNoICsIdentity(t *testing.T) {
	// With no constraints the rewritten program must be equivalent to
	// the original (possibly renamed).
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	out, err := OptimizeCtx(context.Background(), p, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`step(1, 2). step(2, 3). step(3, 1).`))
	want, _, _ := eval.EvalCtx(context.Background(), p, db, eval.Options{})
	got, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, g := want.SortedFacts("path"), got.SortedFacts("path")
	if strings.Join(w, ";") != strings.Join(g, ";") {
		t.Fatalf("answers differ:\n%v\nvs\n%v", w, g)
	}
}

func TestMultipleICsCombination(t *testing.T) {
	// Two pure ics interact: no a-after-b and no b-after-a — paths are
	// single-flavor only.
	p := parser.MustParseProgram(figure1Program)
	ics := parser.MustParseICs(`
		:- a(X, Y), b(Y, Z).
		:- b(X, Y), a(Y, Z).
	`)
	out, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`a(1, 2). a(2, 3). b(10, 11). b(11, 12).`))
	want, _, _ := eval.EvalCtx(context.Background(), p, db, eval.Options{})
	got, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, g := want.SortedFacts("p"), got.SortedFacts("p")
	if strings.Join(w, ";") != strings.Join(g, ";") {
		t.Fatalf("answers differ:\n%v\nvs\n%v", w, g)
	}
}

func TestStatsPopulated(t *testing.T) {
	out, err := OptimizeCtx(context.Background(), parser.MustParseProgram(figure1Program), parser.MustParseICs(figure1IC), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Tree.Stats()
	if s.GoalNodes == 0 || s.RuleNodes == 0 || s.Roots != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Adornments < 3 {
		t.Fatalf("expected at least 3 adornments, got %d", s.Adornments)
	}
}

func TestOptimizeRejectsBadInput(t *testing.T) {
	// No query predicate.
	p := parser.MustParseProgram(`q(X) :- e(X).`)
	if _, err := OptimizeCtx(context.Background(), p, nil, DefaultOptions()); err == nil {
		t.Fatal("expected missing-query error")
	}
	// IC mentions an IDB predicate.
	p2 := parser.MustParseProgram(`
		q(X) :- e(X).
		?- q.
	`)
	ics := parser.MustParseICs(`:- q(X).`)
	if _, err := OptimizeCtx(context.Background(), p2, ics, DefaultOptions()); err == nil {
		t.Fatal("expected IDB-in-ic error")
	}
}

func TestAblationCoreOnly(t *testing.T) {
	// The core algorithm alone (no pre-passes) must still handle the
	// pure Figure 1 example identically.
	out, err := OptimizeCtx(context.Background(), parser.MustParseProgram(figure1Program),
		parser.MustParseICs(figure1IC), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var core int
	for _, r := range out.Program.Rules {
		if r.Head.Pred != "p" {
			core++
		}
	}
	if core != 6 {
		t.Fatalf("core-only pipeline: got %d core rules, want 6:\n%s", core, out.Program)
	}
}
