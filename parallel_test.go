package sqo

// Differential tests for the parallel semi-naive engine: for every
// example program in examples/ (original AND optimizer-rewritten
// form), and for randomized programs over random databases, parallel
// evaluation must produce byte-identical answer sets and identical
// Stats (Iterations, TuplesDerived, RuleFirings, JoinProbes) for every
// worker count. The engine guarantees this by construction — rounds
// evaluate a frozen snapshot and merge per-task buffers in rule order
// at the round barrier — and these tests pin the guarantee. The answer
// sets are also held to the reference evaluator's (internal/refeval).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/refeval"
	"repro/internal/workload"
)

var parallelWorkerCounts = []int{1, 2, 4, 8}

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

// assertWorkersAgree evaluates prog on db under every worker count and
// fails unless relations and stats are identical across all of them
// and — while the fixpoint is small enough for a nested-loop interpreter
// (the 160-step goodpath chain is not) — the relations are the
// reference evaluator's.
func assertWorkersAgree(t *testing.T, label string, prog *Program, db *DB) {
	t.Helper()
	var first *DB
	var firstStats *Stats
	for _, w := range parallelWorkerCounts {
		idb, stats, err := EvalWith(prog, db, EvalOptions{Seminaive: true, Workers: w})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, w, err)
		}
		if first == nil {
			first, firstStats = idb, stats
			if stats.TuplesDerived > 2000 {
				continue
			}
			var facts []Atom
			for _, pred := range db.Preds() {
				facts = append(facts, db.Facts(pred)...)
			}
			for pred, want := range refeval.Eval(prog, facts) {
				if got := idb.SortedFacts(pred); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s differs from the reference:\n%v\nvs\n%v", label, pred, got, want)
				}
			}
			continue
		}
		if !stats.Equal(firstStats) {
			t.Fatalf("%s: stats differ at workers=%d:\n%+v\nvs\n%+v", label, w, *firstStats, *stats)
		}
		for _, pred := range first.Preds() {
			want := first.SortedFacts(pred)
			if got := idb.SortedFacts(pred); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: workers=%d disagrees on %s:\n%v\nvs\n%v", label, w, pred, got, want)
			}
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
			assertWorkersAgree(t, c.name+"/original", c.prog, c.db)
			res, err := Optimize(c.prog, c.ics)
			if err != nil {
				t.Fatalf("%s: optimize: %v", c.name, err)
			}
			assertWorkersAgree(t, c.name+"/rewritten", res.Program, c.db)
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
// test: random programs over random graphs, all worker counts, answers
// and stats identical.
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
		assertWorkersAgree(t, fmt.Sprintf("random-%d", trials), prog, db2)
	}
}

// TestParallelDefaultWorkers checks that the Workers=0 default (one
// worker per CPU) matches explicit sequential evaluation.
func TestParallelDefaultWorkers(t *testing.T) {
	prog := MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := NewDBFrom(workload.Chain(1, 60))
	seq, seqStats, err := EvalWith(prog, db, EvalOptions{Seminaive: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, defStats, err := Eval(prog, db) // DefaultOptions: Workers = 0
	if err != nil {
		t.Fatal(err)
	}
	if !seqStats.Equal(defStats) {
		t.Fatalf("stats differ:\n%+v\nvs\n%+v", *seqStats, *defStats)
	}
	if !reflect.DeepEqual(seq.SortedFacts("path"), def.SortedFacts("path")) {
		t.Fatal("answers differ between default and sequential evaluation")
	}
}
