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

// FuzzPlan drives arbitrary parsed programs through the engine under
// all three join-order policies and asserts its core contract: the
// answer set is the reference evaluator's (internal/refeval; checked
// while the fixpoint is small enough for a nested-loop interpreter),
// and neither it nor the order-invariant statistics (iterations, tuples
// derived) depend on which policy picked the join order. Inputs that fail to parse or fail stratification are
// skipped; inputs where the first run errors (e.g. the MaxTuples guard
// trips) skip the comparison, since abort points are not part of the
// contract. Every run is then repeated over a clone of the database:
// the first ran on the shared DB's interned base (reused from run to
// run), the repeat builds its own, and the two must agree on answers
// and the full Stats.
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
		for pred := range p.EDB() {
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

		type run struct {
			label string
			opts  Options
		}
		runs := []run{
			{"greedy", Options{Seminaive: true}},
			{"cost", Options{Seminaive: true, Policy: PolicyCost}},
			{"adaptive", Options{Seminaive: true, Policy: PolicyAdaptive}},
		}
		type outcome struct {
			answers map[string][]string
			derived int64
			rounds  int
		}
		var base *outcome
		baseLabel := ""
		for _, r := range runs {
			r.opts.MaxTuples = 20000
			idb, stats, err := EvalCtx(context.Background(), p, db, r.opts)
			if err != nil {
				// The first run decides whether this input evaluates at
				// all: every run derives the same tuples, so none may
				// trip the guard once one has finished under it.
				if base != nil {
					t.Fatalf("%s errored where %s succeeded: %v", r.label, baseLabel, err)
				}
				return
			}
			got := &outcome{
				answers: map[string][]string{},
				derived: stats.TuplesDerived,
				rounds:  stats.Iterations,
			}
			for pred := range p.IDB() {
				got.answers[pred] = idb.SortedFacts(pred)
			}
			if base == nil {
				base, baseLabel = got, r.label
				if got.derived <= refMaxDerived {
					if want := refeval.Eval(p, dbFacts(db)); !reflect.DeepEqual(got.answers, want) {
						t.Fatalf("answers differ from the reference:\n%v\nvs\n%v", got.answers, want)
					}
				}
			}
			if !reflect.DeepEqual(got.answers, base.answers) {
				t.Fatalf("answers diverged: %s vs %s\n%v\nvs\n%v", r.label, baseLabel, got.answers, base.answers)
			}
			if got.derived != base.derived || got.rounds != base.rounds {
				t.Fatalf("order-invariant stats diverged: %s (derived=%d rounds=%d) vs %s (derived=%d rounds=%d)",
					r.label, got.derived, got.rounds, baseLabel, base.derived, base.rounds)
			}
			idb2, stats2, err := EvalCtx(context.Background(), p, db.Clone(), r.opts)
			if err != nil {
				t.Fatalf("%s errored on a fresh DB where the shared one succeeded: %v", r.label, err)
			}
			for pred := range p.IDB() {
				if !reflect.DeepEqual(idb2.SortedFacts(pred), got.answers[pred]) {
					t.Fatalf("%s: shared vs fresh DB answers diverged on %s", r.label, pred)
				}
			}
			if !stats.Equal(stats2) {
				t.Fatalf("%s: shared vs fresh DB stats diverged:\n%+v\n%+v", r.label, stats, stats2)
			}
		}
	})
}
