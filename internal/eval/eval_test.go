package eval

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func chainEDB(n int) *DB {
	db := NewDB()
	for i := 1; i < n; i++ {
		db.AddFact(ast.NewAtom("step", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	return db
}

func TestTupleKeyAndString(t *testing.T) {
	a := Tuple{ast.N(1), ast.S("x")}
	b := Tuple{ast.N(1), ast.S("x")}
	c := Tuple{ast.S("1"), ast.S("x")}
	if a.Key() != b.Key() {
		t.Fatal("equal tuples must share keys")
	}
	if a.Key() == c.Key() {
		t.Fatal("number 1 and string 1 must differ")
	}
	if a.String() != "(1, x)" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestRelationAddAndContains(t *testing.T) {
	r := NewRelation(2)
	if !r.Add(Tuple{ast.N(1), ast.N(2)}) {
		t.Fatal("first add must be new")
	}
	if r.Add(Tuple{ast.N(1), ast.N(2)}) {
		t.Fatal("duplicate add must return false")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Contains(Tuple{ast.N(1), ast.N(2)}) || r.Contains(Tuple{ast.N(2), ast.N(1)}) {
		t.Fatal("Contains wrong")
	}
}

func TestRelationAddPanics(t *testing.T) {
	r := NewRelation(2)
	mustPanic(t, func() { r.Add(Tuple{ast.N(1)}) })
	mustPanic(t, func() { r.Add(Tuple{ast.N(1), ast.V("X")}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestTransitiveClosure(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(5) // 1→2→3→4→5
	tuples, stats, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 10 { // C(5,2) pairs
		t.Fatalf("got %d path tuples, want 10", len(tuples))
	}
	if stats.TuplesDerived != 10 {
		t.Fatalf("TuplesDerived = %d", stats.TuplesDerived)
	}
	if stats.Iterations < 3 {
		t.Fatalf("Iterations = %d, expected several rounds", stats.Iterations)
	}
}

func TestCycleTermination(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := NewDB()
	db.AddFact(ast.NewAtom("step", ast.N(1), ast.N(2)))
	db.AddFact(ast.NewAtom("step", ast.N(2), ast.N(1)))
	tuples, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 4 { // (1,2),(2,1),(1,1),(2,2)
		t.Fatalf("got %d tuples, want 4", len(tuples))
	}
}

func TestComparisonFilter(t *testing.T) {
	p := parser.MustParseProgram(`
		big(X, Y) :- step(X, Y), X >= 3.
		?- big.
	`)
	db := chainEDB(6)
	tuples, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 3 { // (3,4), (4,5), (5,6)
		t.Fatalf("got %d tuples, want 3", len(tuples))
	}
}

func TestNegatedEDB(t *testing.T) {
	p := parser.MustParseProgram(`
		ok(X) :- node(X), !blocked(X).
		?- ok.
	`)
	db := NewDB()
	for i := 1; i <= 5; i++ {
		db.AddFact(ast.NewAtom("node", ast.N(float64(i))))
	}
	db.AddFact(ast.NewAtom("blocked", ast.N(2)))
	db.AddFact(ast.NewAtom("blocked", ast.N(4)))
	tuples, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 3 {
		t.Fatalf("got %d tuples, want 3", len(tuples))
	}
}

func TestNegationOnAbsentRelation(t *testing.T) {
	p := parser.MustParseProgram(`
		ok(X) :- node(X), !blocked(X).
		?- ok.
	`)
	db := NewDB()
	db.AddFact(ast.NewAtom("node", ast.N(1)))
	tuples, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("blocked absent entirely: want 1 tuple, got %d", len(tuples))
	}
}

func TestZeroAryPredicates(t *testing.T) {
	p := parser.MustParseProgram(`
		halt :- reach(X), final(X).
		reach(X) :- start(X).
		reach(Y) :- reach(X), step(X, Y).
		?- halt.
	`)
	db := chainEDB(4)
	db.AddFact(ast.NewAtom("start", ast.N(1)))
	db.AddFact(ast.NewAtom("final", ast.N(4)))
	tuples, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("halt should be derived, got %d tuples", len(tuples))
	}
	// Unreachable final point → empty.
	db2 := chainEDB(4)
	db2.AddFact(ast.NewAtom("start", ast.N(3)))
	db2.AddFact(ast.NewAtom("final", ast.N(1)))
	tuples2, _, err := Query(p, db2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples2) != 0 {
		t.Fatalf("halt should not be derived, got %d tuples", len(tuples2))
	}
}

func TestConstantsInRuleHeadsAndBodies(t *testing.T) {
	p := parser.MustParseProgram(`
		special(X) :- step(X, 3).
		tagged(X, 99) :- special(X).
		?- tagged.
	`)
	db := chainEDB(5)
	tuples, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || !tuples[0][0].Equal(ast.N(2)) || !tuples[0][1].Equal(ast.N(99)) {
		t.Fatalf("got %v", tuples)
	}
}

func TestRepeatedVariablesInSubgoal(t *testing.T) {
	p := parser.MustParseProgram(`
		loop(X) :- e(X, X).
		?- loop.
	`)
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(1)))
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(2)))
	db.AddFact(ast.NewAtom("e", ast.N(3), ast.N(3)))
	tuples, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("got %d tuples, want 2", len(tuples))
	}
}

func TestMaxTuplesBudget(t *testing.T) {
	prog := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(100)
	_, _, err := EvalWith(prog, db, Options{MaxTuples: 50})
	if err == nil {
		t.Fatal("expected budget error")
	}
}

func TestEvalRejectsInvalidProgram(t *testing.T) {
	p := &ast.Program{Rules: []ast.Rule{
		{Head: ast.NewAtom("p", ast.V("X"))}, // unsafe: X unbound
	}}
	if _, _, err := Eval(p, NewDB()); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDBCloneIndependent(t *testing.T) {
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1)))
	cp := db.Clone()
	cp.AddFact(ast.NewAtom("e", ast.N(2)))
	if db.Count("e") != 1 || cp.Count("e") != 2 {
		t.Fatal("Clone not independent")
	}
}

func TestDBPredsAndFacts(t *testing.T) {
	db := NewDB()
	db.AddFact(ast.NewAtom("b", ast.N(1)))
	db.AddFact(ast.NewAtom("a", ast.N(2)))
	if got := db.Preds(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Preds = %v", got)
	}
	if fs := db.Facts("a"); len(fs) != 1 || fs[0].String() != "a(2)" {
		t.Fatalf("Facts = %v", fs)
	}
	if db.Facts("zzz") != nil {
		t.Fatal("absent pred must return nil")
	}
}

func TestGoodPathExample(t *testing.T) {
	// Example 3.1 of the paper, evaluated directly.
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	db := chainEDB(6)
	db.AddFact(ast.NewAtom("startPoint", ast.N(1)))
	db.AddFact(ast.NewAtom("endPoint", ast.N(5)))
	tuples, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || !tuples[0][0].Equal(ast.N(1)) || !tuples[0][1].Equal(ast.N(5)) {
		t.Fatalf("goodPath = %v", tuples)
	}
}

func TestSelectionPushingReducesProbes(t *testing.T) {
	// The optimized form of the Section 3 example: adding X >= 100 to
	// the path rules must reduce join probes when most of the graph is
	// below the threshold.
	orig := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	opt := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y), X >= 100.
		path(X, Y) :- step(X, Z), path(Z, Y), X >= 100.
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	db := NewDB()
	// Two chains: 1..50 (all below 100) and 100..140.
	for i := 1; i < 50; i++ {
		db.AddFact(ast.NewAtom("step", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	for i := 100; i < 140; i++ {
		db.AddFact(ast.NewAtom("step", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	db.AddFact(ast.NewAtom("startPoint", ast.N(100)))
	db.AddFact(ast.NewAtom("endPoint", ast.N(140)))

	t1, s1, err := Query(orig, db)
	if err != nil {
		t.Fatal(err)
	}
	t2, s2, err := Query(opt, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != 1 || len(t2) != 1 {
		t.Fatalf("answers differ: %v vs %v", t1, t2)
	}
	if s2.TuplesDerived >= s1.TuplesDerived {
		t.Fatalf("optimized program should derive fewer tuples: %d vs %d", s2.TuplesDerived, s1.TuplesDerived)
	}
	if s2.JoinProbes >= s1.JoinProbes {
		t.Fatalf("optimized program should probe less: %d vs %d", s2.JoinProbes, s1.JoinProbes)
	}
}

func TestStatsProbesPositive(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- e(X).
		?- q.
	`)
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1)))
	_, stats, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if stats.JoinProbes == 0 || stats.RuleFirings != 1 || stats.TuplesDerived != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestLargeChainStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	n := 150
	db := chainEDB(n)
	tuples, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	want := n * (n - 1) / 2
	if len(tuples) != want {
		t.Fatalf("got %d tuples, want %d", len(tuples), want)
	}
}

func TestFactsStringRoundTrip(t *testing.T) {
	db := NewDB()
	facts := parser.MustParseFacts(`e(1, 2). e(2, 3). tag(1, "hello world").`)
	db.AddFacts(facts)
	if db.Count("e") != 2 || db.Count("tag") != 1 {
		t.Fatalf("counts wrong: e=%d tag=%d", db.Count("e"), db.Count("tag"))
	}
	got := db.SortedFacts("tag")
	if len(got) != 1 || got[0] != `tag(1, "hello world")` {
		t.Fatalf("SortedFacts = %v", got)
	}
}

func ExampleQuery() {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := NewDB()
	db.AddFacts(parser.MustParseFacts(`step(1, 2). step(2, 3).`))
	idb, _, _ := Eval(p, db)
	for _, f := range idb.SortedFacts("path") {
		fmt.Println(f)
	}
	// Output:
	// path(1, 2)
	// path(1, 3)
	// path(2, 3)
}
