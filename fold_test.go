package sqo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/magic"
	"repro/internal/refeval"
	"repro/internal/workload"
)

// evalUnfolded is QueryCtx as it was before the query relation became its
// root's relation: the same elim, magic and stream rewrites, the one-root
// renaming rule left in and evaluated, the query relation restricted to the
// goal in insertion order.
func evalUnfolded(t *testing.T, p *Program, db *DB, opts EvalOptions) ([]Atom, *Stats) {
	t.Helper()
	prog := p
	if opts.Elim != ElimOff {
		if res, err := bounded.Rewrite(prog, bounded.Options{}); err == nil {
			prog = res.Program
		} else if !errors.Is(err, bounded.ErrNotBounded) {
			t.Fatal(err)
		}
	}
	if opts.Magic != MagicOff && len(p.Goal) > 0 {
		if res, err := magic.Rewrite(prog); err == nil {
			prog = res.Program
		} else if !errors.Is(err, magic.ErrNotApplicable) {
			t.Fatal(err)
		}
	}
	if opts.Stream {
		prog, _ = magic.Unfold(prog)
	}
	idb, stats, err := EvalCtx(context.Background(), prog, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []Atom
	for _, f := range idb.Facts(prog.Query) { // magic renames the query predicate
		if p.MatchesGoal(f.Args) {
			out = append(out, ast.NewAtom(p.Query, f.Args...))
		}
	}
	return out, stats
}

// TestFoldedQueryMatchesUnfolded holds QueryCtx, which folds the
// optimizer's one-root renaming rule, to the evaluation that keeps it, on
// the optimizer's output for workload.RandomProgram seeds and the
// examples/ programs (Figure 1 and goodpath among them), whole-relation
// and point queries, under magic × elim × stream: the same
// tuples in the same order, the reference evaluator's answers on the
// program as written, and — where nothing else rewrites the program —
// Stats that drop by exactly the copy, a probe, a firing and a derived
// tuple per answer.
func TestFoldedQueryMatchesUnfolded(t *testing.T) {
	type fcase struct {
		name       string
		orig, prog *Program
		db         *DB
	}
	var cases []fcase
	for _, c := range exampleCases(t) {
		res, err := Optimize(c.prog, c.ics)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cases = append(cases, fcase{c.name, c.prog, res.Program, c.db})
	}
	for seed := int64(1); seed <= 30; seed++ {
		src, ics, facts := workload.RandomProgram(seed)
		orig := MustParseProgram(src)
		res, err := Optimize(orig, MustParseICs(ics))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cases = append(cases, fcase{fmt.Sprintf("random-%d", seed), orig, res.Program, NewDBFrom(facts)})
	}

	folds := 0
	for _, c := range cases {
		var facts []Atom
		for _, pred := range c.db.Preds() {
			facts = append(facts, c.db.Facts(pred)...)
		}
		all, _ := evalUnfolded(t, c.prog, c.db, EvalOptions{Seminaive: true, Magic: MagicOff, Elim: ElimOff})
		goals := [][]Term{nil}
		if len(all) > 0 && len(all[0].Args) > 0 {
			point := make([]Term, len(all[0].Args))
			for i := range point {
				point[i] = ast.V(fmt.Sprintf("G%d", i))
			}
			point[0] = all[0].Args[0]
			goals = append(goals, point)
		}
		for _, goal := range goals {
			prog, orig := *c.prog, *c.orig
			prog.Goal, orig.Goal = goal, goal
			label := c.name + " " + prog.GoalAtom().String()
			// The reference interpreter is a nested loop: held to it while
			// the program as written derives little (goodpath's chain does not).
			var want []string
			if _, st, err := QueryWith(&orig, c.db, EvalOptions{Seminaive: true, Magic: MagicOff, Elim: ElimOff}); err != nil {
				t.Fatalf("%s: %v", label, err)
			} else if st.TuplesDerived <= 2000 {
				want = refeval.Answers(&orig, facts)
			}
			for _, magicMode := range []MagicMode{MagicAuto, MagicOff} {
				for _, elim := range []ElimMode{ElimAuto, ElimOff} {
					for _, stream := range []bool{false, true} {
						opts := EvalOptions{Seminaive: true, Magic: magicMode, Elim: elim, Stream: stream}
						cell := fmt.Sprintf("%s magic=%s elim=%s stream=%v", label, magicMode, elim, stream)
						tuples, stats, err := QueryCtx(context.Background(), &prog, c.db, opts)
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						unfolded, unfoldedStats := evalUnfolded(t, &prog, c.db, opts)
						got, order := make([]string, len(tuples)), make([]string, len(unfolded))
						for i, tup := range tuples {
							got[i] = ast.NewAtom(prog.Query, tup...).String()
						}
						for i, f := range unfolded {
							order[i] = f.String()
						}
						if !reflect.DeepEqual(got, order) {
							t.Fatalf("%s: tuples or their order differ from the unfolded evaluation:\n got %v\nwant %v", cell, got, order)
						}
						slices.Sort(got) // the order was checked above
						if want != nil && !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: answers differ from the reference on the original:\n got %v\nwant %v", cell, got, want)
						}
						if magicMode != MagicOff || elim != ElimOff || stream {
							continue
						}
						d := unfoldedStats.TuplesDerived - stats.TuplesDerived
						if d != 0 {
							folds++
						}
						if (d != 0 && d != int64(len(all))) ||
							unfoldedStats.RuleFirings-stats.RuleFirings != d || unfoldedStats.JoinProbes-stats.JoinProbes != d {
							t.Fatalf("%s: Stats moved by more than the copy of %d answers:\nfolded   %+v\nunfolded %+v", cell, len(all), *stats, *unfoldedStats)
						}
					}
				}
			}
		}
	}
	if folds == 0 {
		t.Fatal("no program carried a one-root renaming rule: the test checks nothing")
	}
	t.Logf("%d programs, %d folded evaluations under magic off × elim off", len(cases), folds)
}
