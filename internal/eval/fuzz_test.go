package eval

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/refeval"
)

// FuzzPlan drives arbitrary parsed programs through the engine and
// asserts its core contract: the answer set is the reference evaluator's
// (internal/refeval; checked while the fixpoint is small enough for a
// nested-loop interpreter). Inputs that fail to parse or fail
// stratification are skipped, and so are inputs that trip the MaxTuples
// guard. The run is then repeated over the same database: the first run
// built the DB's interned base, the repeat reuses it with every index
// the first one built, and the two must agree on answers and the full
// Stats — the join order reads the base's lengths and key counts, so it
// must not matter whether it found an index or built it. Last, a
// successor of the database — one EDB relation Replaced with a tuple
// dropped and one added that carries a new constant — derives its base
// from that one, interning the one tuple, and must answer as a Clone of
// it does, whose base is built from scratch.
func FuzzPlan(f *testing.F) {
	f.Add(`p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
?- p.`, uint8(1))
	f.Add(`q(X) :- a(X, Y), b(Y), !c(X).
r(X) :- q(X), a(X, X).
?- r.`, uint8(2))
	f.Add(`s(X, Z) :- e(X, Y), f(Y, Z), X < Z.
t(X) :- s(X, Y), s(Y, X).
?- t.`, uint8(3))
	f.Add(`even(X) :- zero(X).
even(Y) :- odd(X), succ(X, Y).
odd(Y) :- even(X), succ(X, Y).
?- even.`, uint8(4))
	f.Add(`w(X) :- g(X, 3), h(3, X).
?- w.`, uint8(5))

	f.Fuzz(func(t *testing.T, src string, seed uint8) {
		unit, err := parser.Parse(src)
		if err != nil {
			return
		}
		p := unit.Program
		arity, err := p.PredArity()
		if err != nil {
			return
		}
		// Deterministic small EDB: a handful of rows per extensional
		// predicate over a tiny domain, so joins actually join.
		db := NewDB()
		for _, fact := range unit.Facts {
			// Facts live outside the program, so PredArity does not see
			// them; skip inputs where a fact's arity conflicts with the
			// program's (or an earlier fact's) use of the predicate.
			if ar, ok := arity[fact.Pred]; ok && ar != fact.Arity() {
				return
			}
			arity[fact.Pred] = fact.Arity()
			db.AddFact(fact)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for pred := range edbPreds(p) {
			ar := arity[pred]
			if ar == 0 || ar > 4 {
				continue
			}
			for n := 0; n < 8; n++ {
				args := make([]ast.Term, ar)
				for j := range args {
					args[j] = ast.N(float64(rng.Intn(6)))
				}
				db.AddFact(ast.NewAtom(pred, args...))
			}
		}

		opts := Options{MaxTuples: 20000}
		idb, stats, err := EvalCtx(context.Background(), p, db, opts)
		if err != nil {
			return
		}
		answers := map[string][]string{}
		for pred := range p.IDB() {
			answers[pred] = idb.SortedFacts(pred)
		}
		if stats.TuplesDerived <= refMaxDerived {
			if want := refeval.Eval(p, dbFacts(db)); !reflect.DeepEqual(answers, want) {
				t.Fatalf("answers differ from the reference:\n%v\nvs\n%v", answers, want)
			}
		}
		idb2, stats2, err := EvalCtx(context.Background(), p, db, opts)
		if err != nil {
			t.Fatalf("errored over the reused base where the fresh one succeeded: %v", err)
		}
		for pred := range p.IDB() {
			if !reflect.DeepEqual(idb2.SortedFacts(pred), answers[pred]) {
				t.Fatalf("fresh vs reused base answers diverged on %s", pred)
			}
		}
		if !stats.Equal(stats2) || stats2.EDBRowsInterned != 0 {
			t.Fatalf("fresh vs reused base stats diverged:\n%+v\n%+v", stats, stats2)
		}

		var pred string
		for _, q := range db.Preds() {
			if db.Lookup(q).Arity > 0 && !p.IDB()[q] {
				pred = q
				break
			}
		}
		if pred == "" {
			return
		}
		rel := db.Lookup(pred)
		tuples := append([]Tuple(nil), rel.Tuples()...)
		at := int(seed) % len(tuples)
		tuples = append(tuples[:at], tuples[at+1:]...)
		added := make(Tuple, rel.Arity)
		for j := range added {
			added[j] = ast.N(float64(rng.Intn(6)))
		}
		added[int(seed)%rel.Arity] = ast.S("fresh")
		at = int(seed) % (len(tuples) + 1)
		succ := db.Replace(pred, append(tuples[:at], append([]Tuple{added}, tuples[at:]...)...))
		idb3, stats3, err := EvalCtx(context.Background(), p, succ, opts)
		if err != nil {
			return
		}
		idb4, stats4, err := EvalCtx(context.Background(), p, succ.Clone(), opts)
		if err != nil {
			t.Fatalf("errored over a fresh base where the derived one succeeded: %v", err)
		}
		for pred := range p.IDB() {
			if !reflect.DeepEqual(idb3.SortedFacts(pred), idb4.SortedFacts(pred)) {
				t.Fatalf("derived vs fresh base answers diverged on %s", pred)
			}
		}
		if !stats3.Equal(stats4) || stats3.EDBRowsInterned != 1 {
			t.Fatalf("derived vs fresh base stats diverged:\n%+v\n%+v", stats3, stats4)
		}
	})
}

// edbPreds returns the predicates p's rules read and none derives.
func edbPreds(p *ast.Program) map[string]bool {
	idb := p.IDB()
	edb := map[string]bool{}
	for _, r := range p.Rules {
		for _, a := range append(append([]ast.Atom(nil), r.Pos...), r.Neg...) {
			if !idb[a.Pred] {
				edb[a.Pred] = true
			}
		}
	}
	return edb
}
