package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// trendyDB builds the classical bounded workload: people trendy(i) for
// i in [0, people), and likes(i, 1000+i*100+j) for j in [0, items) —
// every person likes their own distinct items, so the full buys
// relation is the cross product of trendy people with every item
// anyone likes.
func trendyDB(people, items int) *DB {
	db := NewDB()
	for i := 0; i < people; i++ {
		db.AddFact(ast.NewAtom("trendy", ast.N(float64(i))))
		for j := 0; j < items; j++ {
			db.AddFact(ast.NewAtom("likes", ast.N(float64(i)), ast.N(float64(1000+i*100+j))))
		}
	}
	return db
}

const trendySrc = `
	buys(X, Y) :- likes(X, Y).
	buys(X, Y) :- trendy(X), buys(Z, Y).
	?- buys.`

// TestElimDifferentialBounded is the headline property: on a provably
// bounded program, answers are the reference evaluator's with
// elimination off, auto, and on — across every magic mode and
// streaming setting.
func TestElimDifferentialBounded(t *testing.T) {
	for _, variant := range []string{
		trendySrc,
		// Bound point query: elim and magic stack.
		`buys(X, Y) :- likes(X, Y).
		 buys(X, Y) :- trendy(X), buys(Z, Y).
		 ?- buys(0, Y).`,
		// Piecewise-linear bounded program (witness depth 3).
		`q(X, Y) :- likes(X, Y).
		 q(X, Y) :- trendy(X), q(Z, Y).
		 q(X, Y) :- trendy(Y), q(X, Z).
		 ?- q.`,
	} {
		p := parser.MustParseProgram(variant)
		db := trendyDB(6, 4)
		var base []string
		baseLabel := ""
		for _, elim := range []ElimMode{ElimOff, ElimAuto} {
			for _, magic := range []MagicMode{MagicOff, MagicAuto} {
				for _, stream := range []bool{false, true} {
					opts := Options{Elim: elim, Magic: magic, Stream: stream}
					label := fmt.Sprintf("elim=%s/magic=%s/stream=%v", elim, magic, stream)
					tuples, stats, err := QueryCtx(context.Background(), p, db, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if wantElim := elim != ElimOff; stats.ElimApplied != wantElim {
						t.Fatalf("%s: ElimApplied = %v, want %v", label, stats.ElimApplied, wantElim)
					}
					if elim != ElimOff && stats.ElimChecked == 0 {
						t.Fatalf("%s: ElimChecked = 0, want > 0", label)
					}
					got := answerSet(tuples)
					if base == nil {
						requireAnswers(t, label, p, db, tuples)
						base, baseLabel = got, label
						continue
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("answers diverged: %s (%d) vs %s (%d)\n%v\nvs\n%v",
							label, len(got), baseLabel, len(base), got, base)
					}
				}
			}
		}
	}
}

// TestElimPointQueryPruning pins the ISSUE acceptance bound: on a
// bound point query over the trendy workload, elimination derives at
// least 10x fewer tuples than evaluating the fixpoint. Without
// elimination magic is impotent here — the recursive subgoal
// buys(Z, Y) carries no binding, so demand degenerates to the full
// relation — while on the flattened program the goal's binding
// restricts both flat rules.
func TestElimPointQueryPruning(t *testing.T) {
	p := parser.MustParseProgram(`
		buys(X, Y) :- likes(X, Y).
		buys(X, Y) :- trendy(X), buys(Z, Y).
		?- buys(0, Y).`)
	db := trendyDB(50, 20)
	opts := DefaultOptions()
	opts.Elim = ElimOff
	offTuples, offStats, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Elim = ElimAuto
	onTuples, onStats, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !onStats.ElimApplied {
		t.Fatal("ElimApplied = false, want true")
	}
	if !reflect.DeepEqual(answerSet(onTuples), answerSet(offTuples)) {
		t.Fatalf("answers diverged: %d vs %d tuples", len(onTuples), len(offTuples))
	}
	if onStats.TuplesDerived*10 > offStats.TuplesDerived {
		t.Errorf("elim derived %d tuples, want <= 1/10 of fixpoint's %d",
			onStats.TuplesDerived, offStats.TuplesDerived)
	}
	if onStats.JoinProbes*10 > offStats.JoinProbes {
		t.Errorf("elim probed %d, want <= 1/10 of fixpoint's %d",
			onStats.JoinProbes, offStats.JoinProbes)
	}
}

// TestElimFallbackTC: genuinely unbounded recursion (transitive
// closure) must fall back to the fixpoint with ElimApplied false and
// the analysis honestly counted — and answers unchanged, with magic
// still free to apply downstream.
func TestElimFallbackTC(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(0, Y).`)
	db := chainDB(30)
	for _, elim := range []ElimMode{ElimOff, ElimAuto} {
		opts := DefaultOptions()
		opts.Elim = elim
		tuples, stats, err := QueryCtx(context.Background(), p, db, opts)
		if err != nil {
			t.Fatalf("elim=%s: %v", elim, err)
		}
		if stats.ElimApplied {
			t.Errorf("elim=%s: ElimApplied = true on unbounded TC", elim)
		}
		if wantChecked := 0; elim != ElimOff {
			wantChecked = 1
			if stats.ElimChecked != wantChecked {
				t.Errorf("elim=%s: ElimChecked = %d, want %d", elim, stats.ElimChecked, wantChecked)
			}
		}
		if !stats.MagicApplied {
			t.Errorf("elim=%s: MagicApplied = false, want true (fallback keeps magic)", elim)
		}
		if len(tuples) != 30 {
			t.Errorf("elim=%s: %d answers, want 30", elim, len(tuples))
		}
	}
}

// FuzzElim drives arbitrary programs with arbitrary binding patterns
// through the elimination path and asserts the one contract that
// matters: elim on, stacked with magic and streaming, answers exactly
// like plain bottom-up evaluation of the same goal — which, while the
// fixpoint is small enough for it, must answer like the reference
// evaluator. Mirrors FuzzMagic's EDB construction; the bottom-up
// baseline decides evaluability.
func FuzzElim(f *testing.F) {
	f.Add(`buys(X, Y) :- likes(X, Y).
buys(X, Y) :- trendy(X), buys(Z, Y).
?- buys.`, uint8(1), uint8(1))
	f.Add(`path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
?- path.`, uint8(2), uint8(1))
	f.Add(`q(X, Y) :- base(X, Y).
q(X, Y) :- left(X), q(Z, Y).
q(X, Y) :- right(Y), q(X, Z).
?- q.`, uint8(3), uint8(2))
	f.Add(`r(X) :- seed(X).
r(X) :- glue(X), r(Y), r(Z).
?- r.`, uint8(4), uint8(1))
	addRenamingSeeds(f)
	f.Add(`buys_q0(X, Y) :- likes(X, Y).
buys_q0(X, Y) :- trendy(X), buys_q0(Z, Y).
buys(X, Y) :- buys_q0(X, Y).
?- buys.`, uint8(11), uint8(1))
	addSuffixedNameSeeds(f)

	f.Fuzz(func(t *testing.T, src string, seed, bindMask uint8) {
		unit, err := parser.Parse(src)
		if err != nil {
			return
		}
		p := unit.Program
		if p.Query == "" {
			return
		}
		arity, err := p.PredArity()
		if err != nil {
			return
		}
		db := NewDB()
		for _, fact := range unit.Facts {
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
		n := arity[p.Query]
		if n > 0 {
			goal := make([]ast.Term, n)
			for i := 0; i < n; i++ {
				if bindMask&(1<<i) != 0 {
					goal[i] = ast.N(float64(rng.Intn(6)))
				} else {
					goal[i] = ast.V(fmt.Sprintf("G%d", i))
				}
			}
			p.Goal = goal
		}

		off := Options{Elim: ElimOff, Magic: MagicOff, MaxTuples: 20000}
		baseTuples, baseStats, err := QueryCtx(context.Background(), p, db, off)
		if err != nil {
			return // baseline decides evaluability
		}
		if baseStats.TuplesDerived <= refMaxDerived {
			requireAnswers(t, "bottom-up", p, db, baseTuples)
		}
		want := answerSet(baseTuples)
		for _, stream := range []bool{false, true} {
			// Rewrites add tuples, so allow headroom.
			opts := Options{Elim: ElimAuto, Stream: stream, MaxTuples: 40000}
			gotTuples, stats, err := QueryCtx(context.Background(), p, db, opts)
			if err != nil {
				if errors.Is(err, ErrBudget) {
					continue // rewrite overhead can exceed even the headroom
				}
				t.Fatalf("stream=%v errored where baseline succeeded: %v", stream, err)
			}
			if got := answerSet(gotTuples); !reflect.DeepEqual(got, want) {
				t.Fatalf("stream=%v: answers diverged (elim applied %v)\n got %v\nwant %v\ngoal %s",
					stream, stats.ElimApplied, got, want, p.GoalAtom())
			}
		}
	})
}
