package incr

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

// TestInitFixpointMatchesEngine: Materialize's initial fixpoint is the
// engine's own round loop (eval.DeltaProgram.Fixpoint) run over the
// view's relations with the view's plans, so on the engine's six named
// workloads (internal/eval's TestNamedWorkloads) it must count the same
// rounds, the same derived tuples and the same join probes as EvalWith —
// which holds only while the view orders its plans as the engine orders
// its own and reads the EDB it interned as the engine reads its base.
// InitProbes also counts the one full-join pass per counting-maintained
// rule that establishes derivation counts afterwards (initCounts), which
// the engine has no part in: where a program has such rules the excess
// is pinned beside the engine's figure. A seventh workload has rules
// whose greedy order ties two EDB subgoals of different lengths, which
// the engine breaks by length: the view must order its joins the same
// way.
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
		_, es, err := eval.EvalWith(p, w.db, eval.Options{})
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

// TestRebuildReadsTombstones: a rebuild runs the engine's fixpoint over
// the view's own EDB relations, in which a retracted fact stays as a
// tombstone until the dead outnumber the live. The view retracts a few
// edges and marks (kept as tombstones), then takes an update that touches
// the negated blocked — a full rebuild — and then a cancelled Apply,
// which the next read repairs by rebuilding. After each rebuild its
// answers, its derivation counts and provenance, and the counters the
// rebuild added must equal a from-scratch evaluation of the same facts:
// the rounds and tuples of EvalCtx and the probes of a fresh
// Materialize (the engine's plus the counting passes').
//
//   - EDB read whole (Fixpoint: rels[pred].View() replaced by a view of
//     every row ever appended): the retracted edges and marks come back,
//     and the answers diverge at the first rebuild.
func TestRebuildReadsTombstones(t *testing.T) {
	p := parser.MustParseProgram(`
		reach(X, Y) :- edge(X, Y), !blocked(X).
		reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
		out(Y) :- reach(1, Y), mark(Y).
		?- out.`)
	n := func(i int) ast.Term { return ast.N(float64(i)) }
	fs := factSet{}
	var facts []ast.Atom
	for i := 1; i < 30; i++ {
		facts = append(facts, ast.NewAtom("edge", n(i), n(i+1)))
		if i%4 == 0 {
			facts = append(facts, ast.NewAtom("edge", n(i), n(i+3)), ast.NewAtom("mark", n(i)))
		}
	}
	facts = append(facts, ast.NewAtom("blocked", n(40)))
	fs.apply(facts, nil)
	v, err := Materialize(p, fs.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tombstones := func(label string) {
		t.Helper()
		for _, pred := range []string{"edge", "mark"} {
			if rel := v.rels[pred]; rel.View().Hi == rel.Len() {
				t.Fatalf("%s: %s holds no tombstone", label, pred)
			}
		}
	}
	requireRebuildEqual := func(label string, before Stats) {
		t.Helper()
		requireConsistent(t, label, v, p, fs)
		requireFreshEqual(t, label, v, p, fs)
		_, es, err := eval.EvalCtx(context.Background(), p, fs.db(), eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Materialize(p, fs.db(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, fst := v.Stats(), fresh.Stats()
		if r, n, pr := st.InitRounds-before.InitRounds, st.InitTuples-before.InitTuples, st.InitProbes-before.InitProbes; r != es.Iterations || n != es.TuplesDerived || pr != fst.InitProbes {
			t.Errorf("%s: the rebuild took %d rounds, %d tuples, %d probes; EvalCtx %d rounds, %d tuples, a fresh view %d probes",
				label, r, n, pr, es.Iterations, es.TuplesDerived, fst.InitProbes)
		}
	}

	dels := parser.MustParseFacts(`edge(8, 11). edge(13, 14). mark(20).`)
	if _, err := v.Apply(nil, dels); err != nil {
		t.Fatal(err)
	}
	fs.apply(nil, dels)
	requireConsistent(t, "retract", v, p, fs)
	tombstones("retract")

	adds, dels := parser.MustParseFacts(`blocked(5).`), parser.MustParseFacts(`edge(24, 25).`)
	before := v.Stats()
	if _, err := v.Apply(adds, dels); err != nil {
		t.Fatal(err)
	}
	fs.apply(adds, dels)
	if st := v.Stats(); st.FullRebuilds != before.FullRebuilds+1 {
		t.Fatalf("a negation-touching update made %d full rebuilds, want 1", st.FullRebuilds-before.FullRebuilds)
	}
	tombstones("negation-touching update")
	requireRebuildEqual("negation-touching update", before)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dels = parser.MustParseFacts(`edge(2, 3). mark(12).`)
	if _, err := v.ApplyCtx(ctx, nil, dels); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyCtx error = %v, want context.Canceled", err)
	}
	fs.apply(nil, dels)
	tombstones("cancelled apply")
	before = v.Stats()
	if _, err := v.Answers(); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.FullRebuilds != before.FullRebuilds+1 {
		t.Fatalf("the read after a cancelled apply made %d full rebuilds, want 1", st.FullRebuilds-before.FullRebuilds)
	}
	requireRebuildEqual("repair", before)
}
