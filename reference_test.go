package sqo

// Differential tests of the engine through the facade: every example
// program in examples/ (original AND optimizer-rewritten form) and
// randomized programs over random databases are held to the reference
// evaluator's relations (internal/refeval), and a second evaluation of
// the same inputs to the first one's Stats. The tests keep the names
// they had when they swept the engine's worker pool (1, 2, 4, 8 workers
// had to agree); the pool is gone, the programs and the reference check
// stay.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/refeval"
	"repro/internal/workload"
)

// exampleCases mirrors the programs of the runnable examples/ set,
// with representative databases.
func exampleCases(t *testing.T) []struct {
	name string
	prog *Program
	ics  []IC
	db   *DB
} {
	t.Helper()
	return []struct {
		name string
		prog *Program
		ics  []IC
		db   *DB
	}{
		{
			name: "quickstart",
			prog: MustParseProgram(`
				path(X, Y) :- step(X, Y).
				path(X, Y) :- step(X, Z), path(Z, Y).
				goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
				?- goodPath.
			`),
			ics: MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`),
			db: NewDBFrom(MustParseFacts(`
				step(1, 2). step(2, 3). step(3, 4). step(2, 5). step(5, 4).
				startPoint(1). startPoint(2).
				endPoint(4). endPoint(5).
			`)),
		},
		{
			name: "goodpath",
			prog: MustParseProgram(`
				path(X, Y) :- step(X, Y).
				path(X, Y) :- step(X, Z), path(Z, Y).
				goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
				?- goodPath.
			`),
			ics: MustParseICs(`
				:- startPoint(X), step(X, Y), X < 100.
				:- step(X, Y), X >= Y.
			`),
			db: NewDBFrom(workload.GoodPath(120, 100, 40)),
		},
		{
			name: "transclosure",
			prog: MustParseProgram(`
				p(X, Y) :- a(X, Y).
				p(X, Y) :- b(X, Y).
				p(X, Y) :- a(X, Z), p(Z, Y).
				p(X, Y) :- b(X, Z), p(Z, Y).
				?- p.
			`),
			ics: MustParseICs(`:- a(X, Y), b(Y, Z).`),
			db:  NewDBFrom(workload.ABComb(4, 8, 8)),
		},
		{
			name: "funcdep",
			prog: MustParseProgram(`
				conflict(E) :- manages(E, M1), manages(E, M2), M1 < M2.
				boss(E, M) :- manages(E, M).
				boss(E, M) :- manages(E, X), boss(X, M).
				top(E, M) :- boss(E, M), ceo(M).
				?- top.
			`),
			ics: MustParseICs(`:- manages(E, M1), manages(E, M2), M1 != M2.`),
			db: NewDBFrom(MustParseFacts(`
				manages(dana, erin). manages(erin, frank). manages(frank, grace).
				ceo(grace).
			`)),
		},
		{
			// A miniature of the Theorem 5.4 two-counter encoding (the
			// same shape internal/qtree's stress test uses): the real
			// tcm.Encode constraint set is too large for Optimize, but
			// the reach/halt recursion over a trace database is exactly
			// the evaluation pattern the example exercises.
			name: "undecidable",
			prog: MustParseProgram(`
				reach(T) :- cnfg(T, C1, C2, S), zero(T).
				reach(T2) :- reach(T), succ(T, T2), cnfg(T2, C1, C2, S).
				halt :- reach(T), cnfg(T, C1, C2, S), zero(Z0), succ(Z0, Z1), succ(Z1, S).
				?- halt.
			`),
			ics: MustParseICs(`
				:- succ(X, Y), !dom(X).
				:- succ(X, Y), !dom(Y).
				:- zero(X), !dom(X).
				:- succ(X, Y), zero(Y).
			`),
			db: NewDBFrom(MustParseFacts(`
				zero(0). succ(0, 1). succ(1, 2).
				dom(0). dom(1). dom(2).
				cnfg(0, 0, 0, 0). cnfg(1, 1, 0, 1). cnfg(2, 2, 0, 2).
			`)),
		},
	}
}

// assertReference evaluates prog on db twice and fails unless the two
// runs agree on relations and Stats and — while the fixpoint is small
// enough for a nested-loop interpreter (the 160-step goodpath chain is
// not) — the relations are the reference evaluator's.
func assertReference(t *testing.T, label string, prog *Program, db *DB) {
	t.Helper()
	idb, stats, err := EvalCtx(context.Background(), prog, db, EvalOptions{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if stats.TuplesDerived <= 2000 {
		var facts []Atom
		for _, pred := range db.Preds() {
			facts = append(facts, db.Facts(pred)...)
		}
		for pred, want := range refeval.Eval(prog, facts) {
			if got := idb.SortedFacts(pred); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s differs from the reference:\n%v\nvs\n%v", label, pred, got, want)
			}
		}
	}
	again, againStats, err := Eval(prog, db)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !againStats.Equal(stats) {
		t.Fatalf("%s: stats differ between two runs:\n%+v\nvs\n%+v", label, *stats, *againStats)
	}
	for _, pred := range idb.Preds() {
		if want, got := idb.Facts(pred), again.Facts(pred); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: two runs disagree on %s or its order:\n%v\nvs\n%v", label, pred, got, want)
		}
	}
}

// TestParallelAgreesOnExamplePrograms runs the differential check on
// every example program, both the original and the optimizer-rewritten
// form (when the constraints are supported).
func TestParallelAgreesOnExamplePrograms(t *testing.T) {
	for _, c := range exampleCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			assertReference(t, c.name+"/original", c.prog, c.db)
			res, err := Optimize(c.prog, c.ics)
			if err != nil {
				t.Fatalf("%s: optimize: %v", c.name, err)
			}
			assertReference(t, c.name+"/rewritten", res.Program, c.db)
		})
	}
}

// randomProgram generates a random safe datalog program: binary IDB
// predicates p0..p2 defined by 2-atom join rules over a random mix of
// the EDB predicate e and the IDB predicates, sometimes guarded by a
// comparison filter.
func randomProgram(rng *rand.Rand) (*Program, error) {
	vars := []string{"X", "Y", "Z", "W"}
	preds := []string{"e", "p0", "p1", "p2"}
	nRules := 3 + rng.Intn(5)
	src := "p0(X, Y) :- e(X, Y).\n" // ensure p0 is initialized
	for i := 0; i < nRules; i++ {
		head := fmt.Sprintf("p%d", rng.Intn(3))
		// Chain-join two atoms so every head variable is bound.
		b1 := preds[rng.Intn(len(preds))]
		b2 := preds[rng.Intn(len(preds))]
		v1, v2, v3 := vars[0], vars[1], vars[2]
		rule := fmt.Sprintf("%s(%s, %s) :- %s(%s, %s), %s(%s, %s)",
			head, v1, v3, b1, v1, v2, b2, v2, v3)
		if rng.Intn(3) == 0 {
			ops := []string{"<", "<=", "!=", ">"}
			rule += fmt.Sprintf(", %s %s %s", v1, ops[rng.Intn(len(ops))], v3)
		}
		src += rule + ".\n"
	}
	src += "?- p0.\n"
	return ParseProgram(src)
}

// TestParallelAgreesOnRandomPrograms is the randomized differential
// test: random programs over random graphs against the reference.
func TestParallelAgreesOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	trials := 0
	for trials < 25 {
		prog, err := randomProgram(rng)
		if err != nil {
			continue // rare: generator produced an invalid program
		}
		trials++
		n := 4 + rng.Intn(6)
		db := NewDBFrom(workload.RandomGraph(n, n*3, rng.Int63()))
		// RandomGraph emits edge/2; the generator uses e/2.
		facts := db.Facts("edge")
		db2 := NewDB()
		for _, f := range facts {
			f.Pred = "e"
			db2.AddFact(f)
		}
		assertReference(t, fmt.Sprintf("random-%d", trials), prog, db2)
	}
}
