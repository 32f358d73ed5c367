package qtree

import (
	"context"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/parser"
)

// TestOptimizeDeterministic: repeated runs must produce byte-identical
// rewritten programs and forests — downstream users diff and cache
// optimizer output.
func TestOptimizeDeterministic(t *testing.T) {
	srcs := []struct{ prog, ics string }{
		{figure1Program, figure1IC},
		{`
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
			?- goodPath.
		`, `
			:- startPoint(X), step(X, Y), X < 100.
			:- step(X, Y), X >= Y.
		`},
		{`
			boss(E, M) :- manages(E, M).
			boss(E, M) :- manages(E, X), boss(X, M).
			?- boss.
		`, `:- manages(E, M1), manages(E, M2), M1 != M2.`},
	}
	for i, s := range srcs {
		var progs, forests []string
		for run := 0; run < 4; run++ {
			out, err := OptimizeCtx(context.Background(), parser.MustParseProgram(s.prog), parser.MustParseICs(s.ics), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, out.Program.String())
			forests = append(forests, out.Tree.Print())
		}
		for run := 1; run < 4; run++ {
			if progs[run] != progs[0] {
				t.Fatalf("case %d: program differs between runs:\n%s\nvs\n%s", i, progs[0], progs[run])
			}
			if forests[run] != forests[0] {
				t.Fatalf("case %d: forest differs between runs", i)
			}
		}
	}
}

// TestMixedConstraintClasses exercises all three constraint-handling
// modes at once: a pure ic (prune), a local order ic (case split +
// mapping condition), and a non-local order ic (quasi-local residue) —
// and checks equivalence on consistent databases.
func TestMixedConstraintClasses(t *testing.T) {
	prog := parser.MustParseProgram(`
		route(X, Y) :- hop(X, Y).
		route(X, Y) :- hop(X, Z), route(Z, Y).
		trip(X, Y) :- origin(X), route(X, Y), dest(Y).
		?- trip.
	`)
	ics := parser.MustParseICs(`
		:- hop(X, Y), closed(Y).
		:- hop(X, Y), X >= Y.
		:- origin(X), dest(Y), Y <= X.
	`)
	out, err := OptimizeCtx(context.Background(), prog, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Warnings) != 0 {
		t.Fatalf("all three constraints are supported; warnings: %v", out.Warnings)
	}
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`
		hop(1, 2). hop(2, 5). hop(5, 9). hop(2, 7).
		origin(1). origin(2).
		dest(9). dest(7).
		closed(11).
	`))
	want, _, err := eval.EvalCtx(context.Background(), prog, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatalf("%v\n%s", err, out.Program)
	}
	w := want.SortedFacts("trip")
	g := got.SortedFacts("trip")
	if strings.Join(w, ";") != strings.Join(g, ";") {
		t.Fatalf("answers differ:\n%v\nvs\n%v", w, g)
	}
	if len(w) == 0 {
		t.Fatal("sanity: expected trips")
	}
}

// TestMixedNegationAndOrder combines a local negated-atom constraint
// with order constraints.
func TestMixedNegationAndOrder(t *testing.T) {
	prog := parser.MustParseProgram(`
		conn(X, Y) :- link(X, Y), !down(X).
		conn(X, Y) :- link(X, Z), !down(X), conn(Z, Y).
		?- conn.
	`)
	ics := parser.MustParseICs(`
		:- link(X, Y), !registered(X).
		:- link(X, Y), X = Y.
	`)
	out, err := OptimizeCtx(context.Background(), prog, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Warnings) != 0 {
		t.Fatalf("warnings: %v", out.Warnings)
	}
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`
		link(1, 2). link(2, 3).
		registered(1). registered(2).
		down(9).
	`))
	db.Rel("down", 1)
	want, _, err := eval.EvalCtx(context.Background(), prog, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatalf("%v\n%s", err, out.Program)
	}
	w := want.SortedFacts("conn")
	g := got.SortedFacts("conn")
	if strings.Join(w, ";") != strings.Join(g, ";") {
		t.Fatalf("answers differ:\n%v\nvs\n%v", w, g)
	}
	if len(w) != 3 {
		t.Fatalf("sanity: want 3 conn tuples, got %v", w)
	}
}

// TestFigure1ForestGolden pins the forest's high-level shape: three
// trees, each mentioning the expected non-trivial residue sets.
func TestFigure1ForestGolden(t *testing.T) {
	out, err := OptimizeCtx(context.Background(), parser.MustParseProgram(figure1Program), parser.MustParseICs(figure1IC), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Tree.Print()
	for _, frag := range []string{
		"=== tree 1", "=== tree 2", "=== tree 3",
		"rule: p_s0(V0, V1) :- a(V0, V1).",
		"rule: p_s0(V0, V1) :- b(V0, V1).",
	} {
		if !strings.Contains(s, frag) {
			t.Fatalf("forest misses %q:\n%s", frag, s)
		}
	}
	// Exactly one adornment shows BOTH constraints' unmapped atoms (p3).
	both := strings.Count(s, "ic0:{a(") // appears on p2- and p3-style nodes
	if both == 0 {
		t.Fatalf("adornment annotations missing:\n%s", s)
	}
}

// TestZeroAryQueryOptimizes covers 0-ary query predicates (like the
// halt predicate of the Theorem 5.4 encoding) through the whole
// pipeline, including constraints that are skipped as unsupported.
func TestZeroAryQueryOptimizes(t *testing.T) {
	prog := parser.MustParseProgram(`
		reach(X) :- start(X).
		reach(Y) :- reach(X), succ(X, Y).
		halt :- reach(X), final(X).
		?- halt.
	`)
	ics := parser.MustParseICs(`
		:- succ(X, Y), !dom(X).
		:- start(X), final(X).
	`)
	out, err := OptimizeCtx(context.Background(), prog, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Satisfiable {
		t.Fatal("halt is satisfiable")
	}
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`
		start(1). succ(1, 2). succ(2, 3). final(3).
		dom(1). dom(2).
	`))
	want, _, err := eval.EvalCtx(context.Background(), prog, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
	if err != nil {
		t.Fatalf("%v\n%s", err, out.Program)
	}
	if want.Count("halt") != 1 || got.Count("halt") != 1 {
		t.Fatalf("halt counts: want-prog %d, opt-prog %d", want.Count("halt"), got.Count("halt"))
	}
}

// TestTwoCounterEncodingOptimizes runs the full optimizer over the
// Theorem 5.4 encoding itself — a stress test with 30+ constraints,
// most of them unsupported (non-local negation) and correctly skipped.
func TestTwoCounterEncodingOptimizes(t *testing.T) {
	m := tcmHalting()
	out, err := OptimizeCtx(context.Background(), m.prog, m.ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Warnings) == 0 {
		t.Fatal("the encoding's non-local negations should produce warnings")
	}
	got, _, err := eval.EvalCtx(context.Background(), out.Program, m.db, eval.Options{})
	if err != nil {
		t.Fatalf("%v\n%s", err, out.Program)
	}
	if got.Count("halt") != 1 {
		t.Fatalf("halt not derived by the optimized encoding: %d", got.Count("halt"))
	}
}
