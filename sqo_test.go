package sqo

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/refeval"
	"repro/internal/tcm"
	"repro/internal/workload"
)

func TestFacadeOptimizeAndEval(t *testing.T) {
	p := MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	ics := MustParseICs(`
		:- startPoint(X), step(X, Y), X < 100.
		:- step(X, Y), X >= Y.
	`)
	res, err := Optimize(p, ics)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Fatal("satisfiable expected")
	}
	db := NewDBFrom(workload.GoodPath(50, 100, 30))
	want, _, err := Query(p, db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Query(res.Program, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || len(got) != 1 {
		t.Fatalf("answers: want %v, got %v", want, got)
	}
}

func TestFacadeBaselineOptimize(t *testing.T) {
	p := MustParseProgram(`
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		path(X, Y) :- step(X, Y).
		?- goodPath.
	`)
	ics := MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
	opt := BaselineOptimize(p, ics)
	if len(opt.Rules) != 2 {
		t.Fatalf("baseline should keep both rules:\n%s", opt)
	}
}

func TestFacadeSatisfiableAndEmpty(t *testing.T) {
	p := MustParseProgram(`
		q(X, Z) :- a(X, Y), b(Y, Z).
		?- q.
	`)
	ics := MustParseICs(`:- a(X, Y), b(Y, Z).`)
	sat, err := Satisfiable(p, ics)
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Fatal("should be unsatisfiable")
	}
	empty, decided, err := Empty(p, ics, EmptinessOptions{})
	if err != nil || !decided || !empty {
		t.Fatalf("empty=%v decided=%v err=%v", empty, decided, err)
	}
}

func TestFacadeContainment(t *testing.T) {
	u1 := MustParseProgram(`q(X) :- e(X, Y), e(Y, Z).`).Rules[0]
	u2 := MustParseProgram(`q(X) :- e(X, Y).`).Rules[0]
	got, err := CQContained(u1, u2)
	if err != nil || !got {
		t.Fatalf("containment expected: %v %v", got, err)
	}
}

func TestFacadeTwoCounter(t *testing.T) {
	m := tcm.Halting2Step()
	prog, ics, err := EncodeTwoCounter(m)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Query != "halt" || len(ics) == 0 {
		t.Fatal("encoding malformed")
	}
	facts, halted := TwoCounterTraceDB(m, 10)
	if !halted || len(facts) == 0 {
		t.Fatal("trace malformed")
	}
	db := NewDBFrom(facts)
	tuples, _, err := Query(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("halt not derived: %v", tuples)
	}
}

func TestFacadeExplain(t *testing.T) {
	p := MustParseProgram(`
		p(X, Y) :- a(X, Y).
		p(X, Y) :- b(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		p(X, Y) :- b(X, Z), p(Z, Y).
		?- p.
	`)
	res, err := Optimize(p, MustParseICs(`:- a(X, Y), b(Y, Z).`))
	if err != nil {
		t.Fatal(err)
	}
	s := Explain(res)
	if !strings.Contains(s, "=== tree") {
		t.Fatalf("Explain output wrong:\n%s", s)
	}
	if Explain(nil) != "(no query tree)" {
		t.Fatal("nil Explain")
	}
}

func TestFormatProgramRoundTrips(t *testing.T) {
	p := MustParseProgram(`
		p(X) :- e(X), X < 5.
		?- p.
	`)
	s := FormatProgram(p)
	p2, err := ParseProgram(s)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s)
	}
	if p2.Query != "p" || len(p2.Rules) != 1 {
		t.Fatal("round trip lost content")
	}
}

func TestOptimizedProgramsReparse(t *testing.T) {
	// The rewritten program (with generated predicate names) must be
	// valid parser syntax — downstream users will want to print and
	// store it.
	p := MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	ics := MustParseICs(`
		:- startPoint(X), step(X, Y), X < 100.
		:- step(X, Y), X >= Y.
	`)
	res, err := Optimize(p, ics)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseProgram(FormatProgram(res.Program)); err != nil {
		t.Fatalf("rewritten program does not reparse: %v\n%s", err, FormatProgram(res.Program))
	}
}

func TestFacadeEvalProv(t *testing.T) {
	p := MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := NewDBFrom(MustParseFacts(`step(1, 2). step(2, 3).`))
	idb, explain, stats, err := EvalProv(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if idb.Count("path") != 3 || stats.TuplesDerived != 3 {
		t.Fatalf("counts wrong: %d %d", idb.Count("path"), stats.TuplesDerived)
	}
	d, err := explain(MustParseFacts(`path(1, 3).`)[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() < 3 || d.Depth() < 2 {
		t.Fatalf("derivation too small:\n%s", d)
	}
	if _, err := explain(MustParseFacts(`path(3, 1).`)[0]); err == nil {
		t.Fatal("underived fact must error")
	}
}

// TestNilDBIsEmptyDatabase: a nil *DB used to be dereferenced by the
// evaluators and by Materialize; it now reads as the empty database.
func TestNilDBIsEmptyDatabase(t *testing.T) {
	p := MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path(1, Y).
	`)
	opts := DefaultEvalOptions()
	tuples, _, err := QueryCtx(context.Background(), p, nil, opts)
	if err != nil || len(tuples) != 0 {
		t.Fatalf("QueryCtx(nil) = %v, %v", tuples, err)
	}
	if _, _, err := EvalCtx(context.Background(), p, nil, opts); err != nil {
		t.Fatalf("EvalCtx(nil): %v", err)
	}
	_, explain, _, err := EvalProv(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := explain(MustParseFacts(`step(1, 2).`)[0]); err == nil {
		t.Fatal("provenance over a nil DB found an EDB fact")
	}
	v, err := Materialize(p, nil, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := v.Apply(MustParseFacts(`step(1, 2).`), nil)
	if err != nil || len(ch.Added) != 1 {
		t.Fatalf("view over a nil DB after one insert: %+v, %v", ch, err)
	}
}

// TestNegativeZeroIsZero: -0 and 0 are one constant to Equal, Compare
// and the interner (float ==), so they must be one constant to every
// Key-based consumer too — relation and fact keys, cache keys, the
// printer. ast.N normalizes the sign away.
func TestNegativeZeroIsZero(t *testing.T) {
	unit, err := Parse("e(0). e(-0). e(0.0). e(1).\nq(X) :- e(X), X >= 0.\n?- q.")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDBFrom(unit.Facts)
	if got := db.Count("e"); got != 2 {
		t.Fatalf("e has %d tuples, want 2 (0 and 1)", got)
	}
	tuples, _, err := Query(unit.Program, db)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tu := range tuples {
		got = append(got, "q"+tu.String())
	}
	sort.Strings(got)
	if want := refeval.Eval(unit.Program, unit.Facts)["q"]; !reflect.DeepEqual(got, want) || len(got) != 2 {
		t.Fatalf("engine %v, reference %v, want two answers from both", got, want)
	}
	p := MustParseProgram("q(X) :- e(X), X >= -0.\n?- q(-0.0).")
	src := FormatProgram(p)
	if strings.Contains(src, "-0") {
		t.Fatalf("negative zero survives printing:\n%s", src)
	}
	p2, err := ParseProgram(src)
	if err != nil || FormatProgram(p2) != src {
		t.Fatalf("FormatProgram does not round-trip (%v):\n%s", err, src)
	}
}
