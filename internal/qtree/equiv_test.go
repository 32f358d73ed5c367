package qtree

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/parser"
)

// TestRandomizedEquivalence is the executable form of Theorem 4.1: on
// every database satisfying the constraints, the rewritten program
// must produce exactly the same relation for the query predicate as
// the original. Programs, constraints, and databases are drawn at
// random; databases are rejection-sampled for consistency.
func TestRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	trials := 120
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		prog, ics := randomProgram(rng)
		out, err := OptimizeCtx(context.Background(), prog, ics, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: optimize failed: %v\nprogram:\n%sics: %v", trial, err, prog, ics)
		}
		for dbTrial := 0; dbTrial < 6; dbTrial++ {
			db, ok := randomConsistentDB(rng, ics)
			if !ok {
				continue
			}
			origIdb, _, err := eval.EvalCtx(context.Background(), prog, db, eval.Options{})
			if err != nil {
				t.Fatalf("trial %d: eval original: %v", trial, err)
			}
			optIdb, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
			if err != nil {
				t.Fatalf("trial %d: eval rewritten: %v\n%s", trial, err, out.Program)
			}
			want := origIdb.SortedFacts(prog.Query)
			got := optIdb.SortedFacts(prog.Query)
			if strings.Join(want, ";") != strings.Join(got, ";") {
				t.Fatalf("trial %d/%d: answers differ\nprogram:\n%sics: %v\nrewritten:\n%swant: %v\ngot:  %v",
					trial, dbTrial, prog, ics, out.Program, want, got)
			}
			if !out.Satisfiable && len(want) > 0 {
				t.Fatalf("trial %d: declared unsatisfiable but original has answers %v\nprogram:\n%sics: %v",
					trial, want, prog, ics)
			}
		}
	}
}

// TestSatisfiabilitySoundness cross-checks the query-tree
// satisfiability verdict against brute-force search over small
// databases: if any consistent database yields an answer, the verdict
// must be satisfiable (the converse may need larger witnesses than the
// brute-force domain, so only soundness of pruning is asserted).
func TestSatisfiabilitySoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		prog, ics := randomProgram(rng)
		out, err := OptimizeCtx(context.Background(), prog, ics, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if out.Satisfiable {
			continue // only the unsat verdict is checked exhaustively
		}
		// Every sampled consistent DB must give zero answers.
		for dbTrial := 0; dbTrial < 30; dbTrial++ {
			db, ok := randomConsistentDB(rng, ics)
			if !ok {
				continue
			}
			idb, _, err := eval.EvalCtx(context.Background(), prog, db, eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if idb.Count(prog.Query) > 0 {
				t.Fatalf("trial %d: declared unsatisfiable, but a consistent DB yields answers\nprogram:\n%sics: %v",
					trial, prog, ics)
			}
		}
	}
}

// randomProgram builds a small random recursive program over EDB
// predicates e0, e1, e2 (binary) and f (unary), plus 1-2 random pure
// constraints.
func randomProgram(rng *rand.Rand) (*ast.Program, []ast.IC) {
	edb := []string{"e0", "e1", "e2"}
	var rules []string
	// 1-2 base rules.
	for i := 0; i < 1+rng.Intn(2); i++ {
		e := edb[rng.Intn(len(edb))]
		if rng.Intn(4) == 0 {
			rules = append(rules, fmt.Sprintf("q(X, Y) :- %s(X, Y), f(X).", e))
		} else {
			rules = append(rules, fmt.Sprintf("q(X, Y) :- %s(X, Y).", e))
		}
	}
	// 1-2 recursive rules.
	for i := 0; i < 1+rng.Intn(2); i++ {
		e := edb[rng.Intn(len(edb))]
		if rng.Intn(2) == 0 {
			rules = append(rules, fmt.Sprintf("q(X, Y) :- %s(X, Z), q(Z, Y).", e))
		} else {
			rules = append(rules, fmt.Sprintf("q(X, Y) :- q(X, Z), %s(Z, Y).", e))
		}
	}
	src := strings.Join(rules, "\n") + "\n?- q.\n"
	prog := parser.MustParseProgram(src)

	var ics []ast.IC
	for i := 0; i < 1+rng.Intn(2); i++ {
		a := edb[rng.Intn(len(edb))]
		b := edb[rng.Intn(len(edb))]
		switch rng.Intn(3) {
		case 0: // forbid a-then-b joins
			ics = append(ics, parser.MustParseICs(fmt.Sprintf(":- %s(X, Y), %s(Y, Z).", a, b))...)
		case 1: // forbid sources of a marked by f
			ics = append(ics, parser.MustParseICs(fmt.Sprintf(":- %s(X, Y), f(X).", a))...)
		default: // forbid self-loops of a
			ics = append(ics, parser.MustParseICs(fmt.Sprintf(":- %s(X, X).", a))...)
		}
	}
	return prog, ics
}

// randomConsistentDB rejection-samples a small database over a 4-node
// domain that satisfies the constraints.
func randomConsistentDB(rng *rand.Rand, ics []ast.IC) (*eval.DB, bool) {
	for attempt := 0; attempt < 30; attempt++ {
		var facts []ast.Atom
		for _, e := range []string{"e0", "e1", "e2"} {
			for i := 0; i < rng.Intn(5); i++ {
				facts = append(facts, ast.NewAtom(e,
					ast.N(float64(rng.Intn(4))), ast.N(float64(rng.Intn(4)))))
			}
		}
		for i := 0; i < rng.Intn(3); i++ {
			facts = append(facts, ast.NewAtom("f", ast.N(float64(rng.Intn(4)))))
		}
		ok, err := chase.IsConsistent(facts, ics)
		if err != nil {
			return nil, false
		}
		if !ok {
			continue
		}
		db := eval.NewDB()
		db.AddFacts(facts)
		// Materialize empty relations so negation lookups are uniform.
		db.Rel("e0", 2)
		db.Rel("e1", 2)
		db.Rel("e2", 2)
		db.Rel("f", 1)
		return db, true
	}
	return nil, false
}

// orderICProgram and orderICChoices are the program and the
// constraint sets TestRandomizedEquivalenceWithOrderICs draws from.
const orderICProgram = `
	q(X, Y) :- e0(X, Y).
	q(X, Y) :- e0(X, Z), q(Z, Y).
	top(X, Y) :- s(X), q(X, Y), t(Y).
	?- top.
`

var orderICChoices = []string{
	`:- e0(X, Y), X >= Y.`,
	`:- s(X), t(Y), Y <= X.`,
	`:- e0(X, Y), X >= Y.
	 :- s(X), t(Y), Y <= X.`,
	`:- s(X), e0(X, Y), X < 2.
	 :- e0(X, Y), X >= Y.`,
}

// TestRandomizedEquivalenceWithOrderICs extends the property to
// constraints with (local and non-local) order atoms.
func TestRandomizedEquivalenceWithOrderICs(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	prog := parser.MustParseProgram(orderICProgram)
	var icsChoices [][]ast.IC
	for _, src := range orderICChoices {
		icsChoices = append(icsChoices, parser.MustParseICs(src))
	}
	for trial := 0; trial < trials; trial++ {
		ics := icsChoices[rng.Intn(len(icsChoices))]
		out, err := OptimizeCtx(context.Background(), prog, ics, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for dbTrial := 0; dbTrial < 5; dbTrial++ {
			var facts []ast.Atom
			for i := 0; i < 2+rng.Intn(6); i++ {
				x, y := rng.Intn(6), rng.Intn(6)
				facts = append(facts, ast.NewAtom("e0", ast.N(float64(x)), ast.N(float64(y))))
			}
			for i := 0; i < 1+rng.Intn(2); i++ {
				facts = append(facts, ast.NewAtom("s", ast.N(float64(rng.Intn(6)))))
			}
			for i := 0; i < 1+rng.Intn(2); i++ {
				facts = append(facts, ast.NewAtom("t", ast.N(float64(rng.Intn(6)))))
			}
			ok, err := chase.IsConsistent(facts, ics)
			if err != nil || !ok {
				continue
			}
			db := eval.NewDB()
			db.AddFacts(facts)
			db.Rel("e0", 2)
			db.Rel("s", 1)
			db.Rel("t", 1)
			want, _, err := eval.EvalCtx(context.Background(), prog, db, eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := eval.EvalCtx(context.Background(), out.Program, db, eval.Options{})
			if err != nil {
				t.Fatalf("eval rewritten: %v\n%s", err, out.Program)
			}
			w := want.SortedFacts("top")
			g := got.SortedFacts("top")
			if strings.Join(w, ";") != strings.Join(g, ";") {
				t.Fatalf("trial %d: answers differ with ics %v\nrewritten:\n%swant %v\ngot %v",
					trial, ics, out.Program, w, g)
			}
		}
	}
}

// tcmHalting builds the Theorem 5.4 artifacts for the stress test in
// determinism_test.go without creating an import cycle on the facade.
func tcmHalting() struct {
	prog *ast.Program
	ics  []ast.IC
	db   *eval.DB
} {
	// A hand-rolled miniature of the tcm encoding: enough constraints
	// to exercise skipping plus evaluation.
	prog := parser.MustParseProgram(`
		reach(T) :- cnfg(T, C1, C2, S), zero(T).
		reach(T2) :- reach(T), succ(T, T2), cnfg(T2, C1, C2, S).
		halt :- reach(T), cnfg(T, C1, C2, S), zero(Z0), succ(Z0, Z1), succ(Z1, S).
		?- halt.
	`)
	ics := parser.MustParseICs(`
		:- succ(X, Y), !dom(X).
		:- succ(X, Y), !dom(Y).
		:- zero(X), !dom(X).
		:- dom(X), !eq(X, X).
		:- eq(X, Z), eq(Z, Y), !eq(X, Y).
		:- succ(X, Y), zero(Y).
	`)
	db := eval.NewDB()
	db.AddFacts(parser.MustParseFacts(`
		zero(0). succ(0, 1). succ(1, 2).
		dom(0). dom(1). dom(2).
		eq(0, 0). eq(1, 1). eq(2, 2).
		cnfg(0, 0, 0, 0). cnfg(1, 1, 0, 1). cnfg(2, 2, 0, 2).
	`))
	return struct {
		prog *ast.Program
		ics  []ast.IC
		db   *eval.DB
	}{prog, ics, db}
}
