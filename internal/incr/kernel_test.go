package incr

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

// TestInitFixpointMatchesEngine: MaterializeCtx's initial fixpoint is the
// engine's own round loop (eval.DeltaProgram.Fixpoint) run over the
// view's relations with the view's plans, so on the engine's six named
// workloads (internal/eval's TestNamedWorkloads) it must count the same
// rounds, the same derived tuples and the same join probes as EvalCtx —
// which holds only while the view orders its plans as the engine orders
// its own and reads the EDB it interned as the engine reads its base.
// Nothing else runs at materialization, so the figures are equal with no
// surplus, non-recursive strata included. A seventh workload has rules
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
		name, src string
		db        *eval.DB
	}{
		{"trans closure", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			?- path.`, chain(40)},
		{"goodPath", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
			?- goodPath.`, goodPathDB},
		{"multi-rule", `
			reach(X, Y) :- edge(X, Y), !blocked(X).
			reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
			back(X, Y) :- edge(Y, X).
			back(X, Y) :- back(X, Z), back(Z, Y).
			meet(X, Y) :- reach(X, Y), back(X, Y).
			joined(X, Z) :- reach(X, Y), reach(Y, Z).
			far(X, Y) :- reach(X, Y), X < Y.
			sym(X, Y) :- reach(X, Y), reach(Y, X), X != Y.
			?- meet.`, multiDB},
		{"edge cases", `
			halt :- reach(X), final(X).
			reach(X) :- start(X).
			reach(Y) :- reach(X), step(X, Y).
			loop(X) :- selfstep(X, X).
			tagged(X, 99) :- reach(X), !missing(X).
			?- halt.`, edgeDB},
		{"constant in IDB occurrence", `
			t(A, B) :- e(A, B).
			t(A, C) :- t(A, B), e(B, C).
			r(Y) :- t(1, X), f(X, Y).
			?- r.`, windowDB},
		{"non-linear closure", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- path(X, Z), path(Z, Y).
			?- path.`, windowDB},
		{"EDB tie", `
			r(X, Y) :- seed(X, Y).
			r(X, Z) :- r(X, Y), step(Y, Z), tag(Y).
			q(X) :- step(X, Y), tag(Y).
			?- r.`, tieDB},
	} {
		p := parser.MustParseProgram(w.src)
		_, es, err := eval.EvalCtx(context.Background(), p, w.db, eval.Options{})
		if err != nil {
			t.Fatalf("%s: eval: %v", w.name, err)
		}
		v, err := MaterializeCtx(context.Background(), p, w.db, Options{})
		if err != nil {
			t.Fatalf("%s: materialize: %v", w.name, err)
		}
		vs := v.Stats()
		if vs.InitRounds != es.Iterations || vs.InitTuples != es.TuplesDerived || vs.InitProbes != es.JoinProbes {
			t.Errorf("%s: view init took %d rounds, %d tuples, %d probes; engine %d, %d, %d",
				w.name, vs.InitRounds, vs.InitTuples, vs.InitProbes, es.Iterations, es.TuplesDerived, es.JoinProbes)
		}
	}
}

// TestRebuildReadsTombstones: a rebuild runs the engine's fixpoint over
// the view's own EDB relations, in which a retracted fact stays as a
// tombstone until the dead outnumber the live. The view retracts a few
// edges and marks (kept as tombstones), then takes an update that touches
// the negated blocked — a full rebuild — and then a cancelled Apply,
// which the next read repairs by rebuilding. After each rebuild its
// answers, its facts and provenance, and the counters the rebuild added
// — rounds, tuples and probes — must equal a from-scratch evaluation of
// the same facts.
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
	v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
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
		st := v.Stats()
		if r, n, pr := st.InitRounds-before.InitRounds, st.InitTuples-before.InitTuples, st.InitProbes-before.InitProbes; r != es.Iterations || n != es.TuplesDerived || pr != es.JoinProbes {
			t.Errorf("%s: the rebuild took %d rounds, %d tuples, %d probes; EvalCtx %d, %d, %d",
				label, r, n, pr, es.Iterations, es.TuplesDerived, es.JoinProbes)
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
