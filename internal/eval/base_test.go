package eval

// Tests for the interned base (base.go): a DB evaluated before answers
// exactly like one nothing has touched, mutations are seen by the next
// evaluation, clones never share a base with their source, and
// concurrent evaluations of one DB share one build.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// TestSharedBaseDifferential: across magic x naive/seminaive,
// evaluating over one long-lived DB (whose base every configuration
// after the first reuses) gives the same relations, Stats and provenance
// as evaluating over a fresh clone (which builds its own).
func TestSharedBaseDifferential(t *testing.T) {
	progs := map[string]*ast.Program{
		"tc-point": parser.MustParseProgram(`
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- path(X, Z), edge(Z, Y).
			?- path(2003, Y).`),
		"tc-filter-neg": parser.MustParseProgram(`
			path(X, Y) :- edge(X, Y), !blocked(X), X < 4015.
			path(X, Y) :- edge(X, Z), path(Z, Y), Y != 17.
			far(X) :- path(7, X), edge(X, Y).
			?- far.`),
	}
	shared := disjointChainsDB(8, 20)
	shared.AddFact(ast.NewAtom("blocked", ast.N(1003)))
	shared.AddFact(ast.NewAtom("unused", ast.S("x"), ast.N(7)))
	if _, _, err := Eval(progs["tc-point"], shared); err != nil { // build the base up front
		t.Fatal(err)
	}

	for name, p := range progs {
		for _, seminaive := range []bool{true, false} {
			opts := Options{Seminaive: seminaive}
			label := fmt.Sprintf("%s seminaive=%v", name, seminaive)
			reused := runEngine(t, p, shared, opts)
			fresh := runEngine(t, p, shared.Clone(), opts)
			requireSameRun(t, label+" reused vs fresh", reused, fresh)
			if reused.stats.EDBRowsInterned != 0 {
				t.Fatalf("%s: reused base interned %d rows", label, reused.stats.EDBRowsInterned)
			}
			if want := int64(8*20 + 2); fresh.stats.EDBRowsInterned != want {
				t.Fatalf("%s: fresh DB interned %d rows, want %d", label, fresh.stats.EDBRowsInterned, want)
			}

			for _, magic := range []MagicMode{MagicOff, MagicOn} {
				opts.Magic = magic
				rt, rs, err := QueryCtx(context.Background(), p, shared, opts)
				if err != nil {
					t.Fatalf("%s magic=%s: %v", label, magic, err)
				}
				ft, fs, err := QueryCtx(context.Background(), p, shared.Clone(), opts)
				if err != nil {
					t.Fatalf("%s magic=%s: %v", label, magic, err)
				}
				if !reflect.DeepEqual(rt, ft) || !rs.Equal(fs) {
					t.Fatalf("%s magic=%s: reused vs fresh differ:\n%v %+v\n%v %+v", label, magic, rt, rs, ft, fs)
				}
			}
		}
	}
}

func requireSameRun(t *testing.T, label string, a, b engineRun) {
	t.Helper()
	if !a.stats.Equal(&b.stats) {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", label, a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.preds, b.preds) {
		t.Fatalf("%s: relations differ:\n%v\n%v", label, a.preds, b.preds)
	}
	if a.prov != b.prov {
		t.Fatalf("%s: provenance differs:\n%s\n%s", label, a.prov, b.prov)
	}
}

// TestBaseSeesMutation: every way of changing a DB between two
// evaluations — AddFact, a direct Relation.Add, a relation created
// through Rel — is visible to the second.
func TestBaseSeesMutation(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		hit(Y) :- path(0, Y), mark(Y).
		?- hit.`)
	db := chainDB(5)
	count := func(pred string) (int, int64) {
		t.Helper()
		idb, stats, err := Eval(p, db)
		if err != nil {
			t.Fatal(err)
		}
		return idb.Count(pred), stats.EDBRowsInterned
	}
	if n, interned := count("path"); n != 15 || interned != 5 {
		t.Fatalf("initial: path=%d interned=%d, want 15 and 5", n, interned)
	}
	if n, interned := count("path"); n != 15 || interned != 0 {
		t.Fatalf("unchanged DB: path=%d interned=%d, want 15 and 0 (base reused)", n, interned)
	}
	db.AddFact(ast.NewAtom("edge", ast.N(5), ast.N(6)))
	if n, interned := count("path"); n != 21 || interned != 6 {
		t.Fatalf("after AddFact: path=%d interned=%d, want 21 and 6", n, interned)
	}
	db.Lookup("edge").Add(Tuple{ast.N(6), ast.N(7)})
	if n, _ := count("path"); n != 28 {
		t.Fatalf("after Relation.Add: path=%d, want 28", n)
	}
	db.Rel("mark", 1).Add(Tuple{ast.N(7)})
	if n, _ := count("hit"); n != 1 {
		t.Fatalf("after Rel+Add: hit=%d, want 1", n)
	}
}

// TestCloneNeverSharesBase is sqod's per-request "facts" path: a clone
// of an evaluated snapshot, extended with extra facts, sees them; the
// snapshot does not, and keeps serving from the base it already had.
func TestCloneNeverSharesBase(t *testing.T) {
	p, snapshot := tcPointQuery(t)
	want, _, err := Query(p, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	req := snapshot.Clone()
	req.AddFacts([]ast.Atom{ast.NewAtom("edge", ast.N(10), ast.N(77))})
	got, _, err := Query(p, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("clone with an extra edge: %d answers, want %d", len(got), len(want)+1)
	}
	again, stats, err := Query(p, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answerSet(again), answerSet(want)) {
		t.Fatalf("per-request facts leaked into the snapshot:\n got %v\nwant %v", answerSet(again), answerSet(want))
	}
	if stats.EDBRowsInterned != 0 {
		t.Fatalf("snapshot rebuilt its base (%d rows) after a clone was mutated", stats.EDBRowsInterned)
	}
}

// TestConcurrentQueriesShareBase: concurrent evaluations of one fresh
// DB agree, and exactly one of them builds the base. Run under -race.
func TestConcurrentQueriesShareBase(t *testing.T) {
	p, db := tcPointQuery(t)
	want, _, err := Query(p, db.Clone())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		builds int
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, stats, err := QueryCtx(context.Background(), p, db, DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(answerSet(got), answerSet(want)) {
				t.Errorf("answers differ: got %v want %v", answerSet(got), answerSet(want))
			}
			if stats.EDBRowsInterned > 0 {
				mu.Lock()
				builds++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("%d of %d concurrent queries built the base, want exactly 1", builds, n)
	}
}
