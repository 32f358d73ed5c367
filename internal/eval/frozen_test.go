package eval

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// A round reads every IDB relation through the length it had at the
// round's barrier while its tasks append past that length. These tests
// pin what moves when a read forgets the bound. Each names the mutation
// it kills; all three were applied by hand and each fails its test.

// TestFrozenPrefixNonLinearClosure: t(X, Z) :- t(X, Y), t(Y, Z) reads its
// own head predicate twice — the delta window by a scan at depth 0, the
// frozen prefix through the index on Y (bound; Z is not) at depth 1 —
// and appends to it from inside both loops. On a 16-edge chain the path
// lengths known after round k are exactly 1..2^k, so the fixpoint takes
// 4 doubling rounds after the init round and one empty round.
//
//   - index path (join: `int(ri) < w.hi` dropped from the chain loop): a
//     probe of t(Y, Z) sees the paths this round appended, lengths more
//     than double per round, and Iterations, JoinProbes and RoundDeltas
//     all move.
//   - scan path (join: `i < w.hi` replaced by the live length): the
//     delta scan walks into the rows it is itself producing and closes
//     the relation in one round; same three pins move.
func TestFrozenPrefixNonLinearClosure(t *testing.T) {
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Z) :- t(X, Y), t(Y, Z).
		?- t.
	`)
	db := NewDB()
	for i := 0; i < 16; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	r := requireReference(t, "non-linear chain", p, db)
	want := pinnedStats{6, 828, 136, 1100, "t:16 t:15 t:27 t:42 t:36 "}
	if got := pinStats(&r.stats); got != want {
		t.Errorf("counters moved:\ngot  %+v\nwant %+v", got, want)
	}
	if got, want := pinOrder(r), (pinnedOrder{"7170fadf0bff26e6", 172}); got != want {
		t.Errorf("tuple order, provenance or footprint moved:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestFrozenPrefixAdaptiveEstimate: a mid-task reorder reads exact
// fan-outs from inside a running task, after the round has appended to
// the relations it reads them from. h grows down a fan-out-10 tree one
// level a round (10 keys: 10, 100, 1,000, 10,000 new rows); s is src
// passed down a chain of three rules, so its one delta, a row per key,
// is read in the fourth round, after rule 1 has appended h's fourth
// level. q's task on that delta joins s, mid, h and alt. The lengths
// order it [s, alt, h, mid] (alt is the shorter of the EDB subgoals tied
// on X). h(X, V) meets alt's V and mid delivers 200 rows a key against
// the exact 1.4 its 7,000 rows over 5,010 keys promise, so after the
// first s row the task reorders its tail by fan-out: mid 200 (observed),
// alt 300, and h as many rows as a key has tree nodes: 111 in the frozen
// prefix and 1,111 counting what rule 1 just appended. The frozen figure
// runs s's other nine keys as [s, h, alt, mid] (111 + 100 + 100 x 200
// probes a key), the live one as [s, mid, alt, h] (200 + 200 x 300 +
// 200 x 100).
//
//   - reorder past the prefix (fanout: the view's frozen length replaced
//     by the relation's live length, in the row count and in keysBelow):
//     JoinProbes moves by 9 x 59,989.
func TestFrozenPrefixAdaptiveEstimate(t *testing.T) {
	p := parser.MustParseProgram(`
		h(X, Y) :- seed(X, Y).
		h(X, Y) :- h(X, W), step(W, Y).
		a1(X) :- src(X).
		a2(X) :- a1(X).
		s(X) :- a2(X).
		q(X, V) :- s(X), mid(X, Z), h(X, V), alt(X, V).
		?- q.
	`)
	n := func(i int) ast.Term { return ast.N(float64(i)) }
	db := NewDB()
	for x := 0; x < 10; x++ {
		db.AddFact(ast.NewAtom("src", n(x)))
		db.AddFact(ast.NewAtom("seed", n(x), n(1)))
		for z := 0; z < 200; z++ {
			db.AddFact(ast.NewAtom("mid", n(x), n(z)))
		}
		for v := 100; v < 400; v++ {
			db.AddFact(ast.NewAtom("alt", n(x), n(v)))
		}
	}
	for x := 10000; x < 15000; x++ {
		db.AddFact(ast.NewAtom("mid", n(x), n(x))) // one row per key: what the average sees
	}
	for node := 1; node < 1000; node++ { // levels 1, 10..19, 100..199, 1000..1999
		for c := 0; c < 10; c++ {
			db.AddFact(ast.NewAtom("step", n(node), n(10*node+c)))
		}
	}
	r := runEngine(t, p, db, Options{})
	want := pinnedStats{5, 411140, 12140, 437559, "a1:10,h:10 a2:10,h:100 h:1000,s:10 h:10000,q:1000 "}
	if got := pinStats(&r.stats); got != want {
		t.Errorf("counters moved:\ngot  %+v\nwant %+v", got, want)
	}
	if r.stats.AdaptiveReorders != 2 {
		t.Errorf("%d reorders, want 2 (round four: q on s's delta, then q on h's)", r.stats.AdaptiveReorders)
	}
	if got, want := pinOrder(r), (pinnedOrder{"d936f1b687a0b170", 23140}); got != want {
		t.Errorf("tuple order, provenance or footprint moved:\ngot  %+v\nwant %+v", got, want)
	}
}
