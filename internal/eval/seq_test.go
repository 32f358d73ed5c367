package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// These tests were the worker-count differentials of the pool the
// fixpoint used to run its tasks on (TestParallel*: same relations, Stats
// and provenance at 1, 2, 4 and 8 workers). The pool is gone and an
// evaluation is one goroutine; each test keeps its name, program and
// database and checks what still can go wrong on them — answers against
// internal/refeval, the budget guard, provenance that is a function of
// the inputs. What is left of concurrency in this package is between
// evaluations that share one database: TestConcurrentLookupSameMask
// below, TestConcurrentQueriesShareBase and
// TestFanoutReadsShareBase.

// TestParallelMatchesSequentialRandomGraphs: on random graphs, the engine
// returns the reference evaluator's relations.
func TestParallelMatchesSequentialRandomGraphs(t *testing.T) {
	prog := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		sym(X, Y) :- path(X, Y), path(Y, X), X != Y.
		far(X, Y) :- path(X, Y), X < Y.
		?- path.
	`)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		db := NewDB()
		n := 3 + rng.Intn(8)
		for i := 0; i < n*3; i++ {
			db.AddFact(ast.NewAtom("edge",
				ast.N(float64(rng.Intn(n))), ast.N(float64(rng.Intn(n)))))
		}
		requireReference(t, fmt.Sprintf("trial %d", trial), prog, db)
	}
}

// TestParallelMultiRule: many rules per round appending to several
// relations, a rule with two IDB occurrences (two delta tasks per round,
// the second blind to what the first appended) and negation.
func TestParallelMultiRule(t *testing.T) {
	prog := parser.MustParseProgram(`
		reach(X, Y) :- edge(X, Y), !blocked(X).
		reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
		back(X, Y) :- edge(Y, X).
		back(X, Y) :- back(X, Z), back(Z, Y).
		meet(X, Y) :- reach(X, Y), back(X, Y).
		joined(X, Z) :- reach(X, Y), reach(Y, Z).
		?- meet.
	`)
	db := NewDB()
	for i := 0; i < 12; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i+1)%12))))
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i*5)%12))))
	}
	db.AddFact(ast.NewAtom("blocked", ast.N(3)))
	preds := requireReference(t, "multi-rule", prog, db).preds
	if len(preds["meet"]) == 0 || len(preds["joined"]) == 0 {
		t.Fatal("sanity: expected non-empty results")
	}
}

// TestParallelLargeChain: 79 rounds whose delta windows shrink by a row
// each, with the closed-form count.
func TestParallelLargeChain(t *testing.T) {
	prog := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(80)
	idb, stats, err := EvalWith(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := idb.Count("path"); got != 80*79/2 || stats.Iterations != 80 {
		t.Fatalf("path count = %d after %d rounds", got, stats.Iterations)
	}
}

// TestParallelMaxTuplesBudget: the budget guard fires inside the round
// that crosses it.
func TestParallelMaxTuplesBudget(t *testing.T) {
	prog := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(100)
	if _, _, err := EvalWith(prog, db, Options{MaxTuples: 50}); !errors.Is(err, ErrBudget) {
		t.Fatalf("expected a budget error, got %v", err)
	}
}

// TestConcurrentLookupSameMask is the regression test for the lazy
// index build race: many goroutines probe the same un-indexed position
// mask (and several others) on a shared relation. Run with -race.
func TestConcurrentLookupSameMask(t *testing.T) {
	r := newIrel(2, 0)
	for i := uint32(0); i < 2000; i++ {
		r.add([]uint32{i % 50, i})
	}
	count := func(mask uint64, pos []int, vals ...uint32) int {
		ix, n := r.index(mask, pos), 0
		for ri := ix.lookup(r, vals); ri >= 0; ri = ix.next[ri] {
			n++
		}
		return n
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint32(0); i < 50; i++ {
				if got := count(1<<0, []int{0}, i); got != 40 {
					t.Errorf("mask [0] val %d: %d rows, want 40", i, got)
					return
				}
				if count(1<<1, []int{1}, i) != 1 || count(1<<0|1<<1, []int{0, 1}, i, i) != 1 {
					t.Errorf("masks [1], [0 1] val %d: want one row each", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParallelProvenanceDeterministic: provenance recorded under the
// default options must be identical across runs and reconstruct valid
// derivation trees.
func TestParallelProvenanceDeterministic(t *testing.T) {
	prog := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(20)
	idbPreds := prog.IDB()
	var rendered []string
	for run := 0; run < 3; run++ {
		idb, prov, _, err := EvalProv(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		all := ""
		for _, f := range idb.Facts("path") {
			d, err := prov.Tree(f, idbPreds, db)
			if err != nil {
				t.Fatalf("no derivation for %s: %v", f, err)
			}
			all += d.String()
		}
		rendered = append(rendered, all)
	}
	for run := 1; run < 3; run++ {
		if rendered[run] != rendered[0] {
			t.Fatal("provenance differs between runs")
		}
	}
}
