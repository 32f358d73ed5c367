package eval

// Regression tests for the DB.Clone / lazy-index / interner audit
// behind goal-directed evaluation: a magic-rewritten program evaluates
// against the same EDB as the bottom-up run (often interleaved with
// it, and with clones of it), so evaluation must never mutate the
// input database, clones must not share lazy index state with their
// source, and the compiled engine's term interner must be private to
// each evaluation rather than accumulating across the original and
// rewritten programs.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func tcPointQuery(t *testing.T) (*ast.Program, *DB) {
	t.Helper()
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(0, Y).`)
	return p, disjointChainsDB(3, 10)
}

// TestMagicSharedDBRepeatable: alternating bottom-up and magic
// evaluations over one shared DB answer identically every time and
// leave the EDB untouched — the magic program's '#'-named predicates
// and fresh interner must not leak anything into the input database.
func TestMagicSharedDBRepeatable(t *testing.T) {
	p, db := tcPointQuery(t)
	edbBefore := db.SortedFacts("edge")
	predsBefore := db.Preds()

	var want []string
	for round := 0; round < 3; round++ {
		for _, mode := range []MagicMode{MagicOff, MagicAuto} {
			opts := DefaultOptions()
			opts.Magic = mode
			tuples, _, err := QueryCtx(context.Background(), p, db, opts)
			if err != nil {
				t.Fatalf("round %d mode %s: %v", round, mode, err)
			}
			got := answerSet(tuples)
			if want == nil {
				requireAnswers(t, "first round", p, db, tuples)
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d mode %s: answers drifted\n got %v\nwant %v", round, mode, got, want)
			}
		}
	}
	if got := db.SortedFacts("edge"); !reflect.DeepEqual(got, edbBefore) {
		t.Error("evaluation mutated the shared EDB")
	}
	if got := db.Preds(); !reflect.DeepEqual(got, predsBefore) {
		t.Errorf("evaluation added relations to the shared EDB: %v -> %v", predsBefore, got)
	}
}

// TestCloneIndependentAfterLazyIndexes: force lazy index construction
// on the source via an indexed evaluation, then clone, mutate the
// clone, and check the two databases answer independently — the clone
// must not inherit (or corrupt) the source's indexes, and the source's
// incremental index maintenance must not observe the clone's adds.
func TestCloneIndependentAfterLazyIndexes(t *testing.T) {
	p, db := tcPointQuery(t)
	opts := DefaultOptions()
	baseTuples, _, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := answerSet(baseTuples)

	clone := db.Clone()
	// Extend the first chain in the clone only; node 10 gains an edge.
	clone.AddFact(ast.NewAtom("edge", ast.N(10), ast.N(99)))

	cloneTuples, _, err := QueryCtx(context.Background(), p, clone, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cloneTuples) != len(baseTuples)+1 {
		t.Errorf("clone answers %d tuples, want %d (the added edge extends the reachable set by one)",
			len(cloneTuples), len(baseTuples)+1)
	}

	againTuples, _, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := answerSet(againTuples); !reflect.DeepEqual(got, base) {
		t.Fatalf("source answers changed after mutating a clone\n got %v\nwant %v", got, base)
	}
	if db.Contains(ast.NewAtom("edge", ast.N(10), ast.N(99))) {
		t.Error("clone mutation leaked into the source database")
	}
}

// TestCloneThenMagicBothDirections: evaluating the magic rewrite on a
// clone while the original DB keeps serving bottom-up queries (and
// vice versa) yields consistent answers — the pattern sqod's rewrite
// cache produces under concurrent point queries, serialized here.
func TestCloneThenMagicBothDirections(t *testing.T) {
	p, db := tcPointQuery(t)
	clone := db.Clone()

	off := DefaultOptions()
	off.Magic = MagicOff
	on := DefaultOptions()
	on.Magic = MagicAuto

	wantTuples, _, err := QueryCtx(context.Background(), p, db, off)
	if err != nil {
		t.Fatal(err)
	}
	want := answerSet(wantTuples)
	for i, tc := range []struct {
		db   *DB
		opts Options
	}{
		{clone, on}, {db, on}, {clone, off}, {db, off},
	} {
		tuples, _, err := QueryCtx(context.Background(), p, tc.db, tc.opts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := answerSet(tuples); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: answers diverged\n got %v\nwant %v", i, got, want)
		}
	}
}
