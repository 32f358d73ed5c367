package incr

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

// TestInitFixpointMatchesEngine: Materialize's initial fixpoint and the
// engine's are two drivers of one schedule over one join kernel — the
// engine merges in place behind each relation's frozen length, the view
// reads round-start RelViews of the relations it adds to — so on the
// engine's six named workloads (internal/eval's TestNamedWorkloads,
// semi-naive) they must count the same rounds, the same derived tuples
// and the same join probes. InitProbes also counts the one full-join
// pass per counting-maintained rule that establishes derivation counts
// afterwards (initCounts), which the engine has no part in: where a
// program has such rules the excess is pinned beside the engine's
// figure. The same numbers hold at commit a056174, before the two shared
// a kernel. A seventh workload has rules whose greedy order ties two EDB
// subgoals of different lengths, which the engine breaks by length: the
// view must order its joins the same way.
func TestInitFixpointMatchesEngine(t *testing.T) {
	n := func(i int) ast.Term { return ast.N(float64(i)) }
	chain := func(k int) *eval.DB {
		db := eval.NewDB()
		for i := 1; i < k; i++ {
			db.AddFact(ast.NewAtom("step", n(i), n(i+1)))
		}
		return db
	}
	goodPathDB := chain(30)
	goodPathDB.AddFact(ast.NewAtom("startPoint", n(3)))
	goodPathDB.AddFact(ast.NewAtom("endPoint", n(20)))
	multiDB := eval.NewDB()
	for i := 0; i < 10; i++ {
		multiDB.AddFact(ast.NewAtom("edge", n(i), n((i+1)%10)))
		multiDB.AddFact(ast.NewAtom("edge", n(i), n((i*3)%10)))
	}
	multiDB.AddFact(ast.NewAtom("blocked", n(3)))
	edgeDB := chain(6)
	edgeDB.AddFact(ast.NewAtom("start", n(1)))
	edgeDB.AddFact(ast.NewAtom("final", n(5)))
	edgeDB.AddFact(ast.NewAtom("selfstep", n(2), n(2)))
	edgeDB.AddFact(ast.NewAtom("selfstep", n(2), n(3)))
	windowDB := eval.NewDB()
	for i := 0; i < 24; i++ {
		for _, pred := range []string{"e", "step"} {
			windowDB.AddFact(ast.NewAtom(pred, n(i%24), n((i+1)%24)))
			if i%3 == 0 {
				windowDB.AddFact(ast.NewAtom(pred, n(i%24), n((i+7)%24)))
			}
		}
		windowDB.AddFact(ast.NewAtom("f", n(i), n((i*10)%24)))
		windowDB.AddFact(ast.NewAtom("f", n(i), n((i+100)%24)))
	}
	tieDB := chain(60)
	tieDB.AddFact(ast.NewAtom("seed", n(1), n(1)))
	for i := 1; i <= 10; i++ {
		tieDB.AddFact(ast.NewAtom("tag", n(i)))
	}
	for _, w := range []struct {
		name, src   string
		db          *eval.DB
		countProbes int64 // initCounts' share of InitProbes
	}{
		{"trans closure", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			?- path.`, chain(40), 0},
		{"goodPath", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
			?- goodPath.`, goodPathDB, 29}, // startPoint 1 + path(3, Y) 27 + endPoint(20) 1
		{"multi-rule", `
			reach(X, Y) :- edge(X, Y), !blocked(X).
			reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
			back(X, Y) :- edge(Y, X).
			back(X, Y) :- back(X, Z), back(Z, Y).
			meet(X, Y) :- reach(X, Y), back(X, Y).
			joined(X, Z) :- reach(X, Y), reach(Y, Z).
			far(X, Y) :- reach(X, Y), X < Y.
			sym(X, Y) :- reach(X, Y), reach(Y, X), X != Y.
			?- meet.`, multiDB, 1332}, // meet, joined, far and sym over the final reach and back
		{"edge cases", `
			halt :- reach(X), final(X).
			reach(X) :- start(X).
			reach(Y) :- reach(X), step(X, Y).
			loop(X) :- selfstep(X, X).
			tagged(X, 99) :- reach(X), !missing(X).
			?- halt.`, edgeDB, 15}, // halt, loop and tagged
		{"constant in IDB occurrence", `
			t(A, B) :- e(A, B).
			t(A, C) :- t(A, B), e(B, C).
			r(Y) :- t(1, X), f(X, Y).
			?- r.`, windowDB, 72}, // r: 24 rows of t(1, X), two f rows each
		{"non-linear closure", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- path(X, Z), path(Z, Y).
			?- path.`, windowDB, 0},
		{"EDB tie", `
			r(X, Y) :- seed(X, Y).
			r(X, Z) :- r(X, Y), step(Y, Z), tag(Y).
			q(X) :- step(X, Y), tag(Y).
			?- r.`, tieDB, 19}, // q: the 10 tag rows, then the step into each of 2..10
	} {
		p := parser.MustParseProgram(w.src)
		_, es, err := eval.EvalWith(p, w.db, eval.Options{Seminaive: true})
		if err != nil {
			t.Fatalf("%s: eval: %v", w.name, err)
		}
		v, err := Materialize(p, w.db, Options{})
		if err != nil {
			t.Fatalf("%s: materialize: %v", w.name, err)
		}
		vs := v.Stats()
		if vs.InitRounds != es.Iterations || vs.InitTuples != es.TuplesDerived || vs.InitProbes != es.JoinProbes+w.countProbes {
			t.Errorf("%s: view init took %d rounds, %d tuples, %d probes; engine %d, %d, %d (+%d counting)",
				w.name, vs.InitRounds, vs.InitTuples, vs.InitProbes, es.Iterations, es.TuplesDerived, es.JoinProbes, w.countProbes)
		}
	}
}
