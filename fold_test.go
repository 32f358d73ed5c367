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

// unionCases are k-root unions whose roots overlap, each tuple of the
// overlap reaching one root in an earlier round than another, so that
// the order of the answers turns on which root held a tuple first: f's
// shortcuts reach (1, 3), (1, 5) and (3, 6) in fewer rounds than e's
// chain does, and g's root reads e's. The union's rules stand first,
// last, or between their roots' rules.
var unionCases = []struct{ name, src, facts string }{
	{"union two roots", `
		p(X, Y) :- q0(X, Y).
		p(X, Y) :- q1(X, Y).
		q0(X, Y) :- e(X, Y).
		q0(X, Y) :- e(X, Z), q0(Z, Y).
		q1(X, Y) :- f(X, Y).
		q1(X, Y) :- f(X, Z), q1(Z, Y).
		?- p.`,
		`e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 6).
		f(1, 3). f(3, 5). f(5, 6). f(2, 4). f(6, 7).`},
	{"union three roots, rules last", `
		r0(X, Y) :- e(X, Y).
		r0(X, Y) :- r0(X, Z), e(Z, Y).
		r1(X, Y) :- f(X, Y), X < Y.
		r1(X, Y) :- r1(X, Z), f(Z, Y).
		r2(X, Y) :- g(X, Z), r0(Z, Y).
		r2(X, Y) :- f(X, Y).
		p(X, Y) :- r0(X, Y).
		p(X, Y) :- r1(X, Y).
		p(X, Y) :- r2(X, Y).
		?- p.`,
		`e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 6).
		f(1, 3). f(3, 5). f(5, 6). f(2, 4). f(6, 1).
		g(1, 1). g(2, 3). g(7, 2).`},
	{"union between its roots' rules", `
		s1(X, Y) :- f(X, Y).
		s1(X, Y) :- s1(X, Z), s1(Z, Y).
		p(X, Y) :- s1(X, Y).
		p(X, Y) :- s0(X, Y).
		s0(X, Y) :- e(X, Y).
		s0(X, Y) :- e(X, Z), s0(Z, Y).
		?- p.`,
		`e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 6). e(6, 7).
		f(1, 2). f(2, 3). f(3, 4). f(4, 5). f(5, 6). f(6, 7). f(2, 6).`},
}

// TestFoldedQueryMatchesUnfolded holds QueryCtx, which folds the
// optimizer's one-root renaming rule and reads a k-root union from its
// roots, to the evaluation that keeps their rules, on the optimizer's
// output for workload.RandomProgram seeds and the examples/ programs
// (Figure 1 and goodpath among them) and on unionCases, whole-relation
// and point queries, under magic × elim × stream: the same tuples in the
// same order, the reference evaluator's answers on the program as
// written, and — where nothing else rewrites the program — Stats that
// drop by exactly what the rules cost: a probe and a firing per row of
// their roots, a derived tuple per answer, and at most the one round in
// which only they fired. It fails unless some union has k ≥ 2 roots that
// overlap.
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
	for _, u := range unionCases {
		p := MustParseProgram(u.src)
		cases = append(cases, fcase{u.name, p, p, NewDBFrom(MustParseFacts(u.facts))})
	}

	folds, overlaps := 0, 0
	for _, c := range cases {
		var facts []Atom
		for _, pred := range c.db.Preds() {
			facts = append(facts, c.db.Facts(pred)...)
		}
		all, _ := evalUnfolded(t, c.prog, c.db, EvalOptions{Magic: MagicOff, Elim: ElimOff})
		// The rows of the roots the query predicate's rules copy, when
		// every one of them is a one-atom rule (the engine decides
		// whether it is a renaming; the Stats below say whether it did).
		idb, _, err := EvalCtx(context.Background(), c.prog, c.db, EvalOptions{Magic: MagicOff, Elim: ElimOff})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		k, rootRows := 0, int64(0)
		for _, r := range c.prog.RulesFor(c.prog.Query) {
			if len(r.Pos) != 1 {
				k, rootRows = 0, 0
				break
			}
			k++
			rootRows += int64(idb.Count(r.Pos[0].Pred))
		}
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
			if _, st, err := QueryCtx(context.Background(), &orig, c.db, EvalOptions{Magic: MagicOff, Elim: ElimOff}); err != nil {
				t.Fatalf("%s: %v", label, err)
			} else if st.TuplesDerived <= 2000 {
				want = refeval.Answers(&orig, facts)
			}
			for _, magicMode := range []MagicMode{MagicAuto, MagicOff} {
				for _, elim := range []ElimMode{ElimAuto, ElimOff} {
					for _, stream := range []bool{false, true} {
						opts := EvalOptions{Magic: magicMode, Elim: elim, Stream: stream}
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
						copies := int64(0) // a probe and a firing per root row
						if d != 0 {
							folds++
							copies = rootRows
							if k >= 2 && rootRows > int64(len(all)) && len(goal) == 0 {
								overlaps++
							}
						}
						rounds := unfoldedStats.Iterations - stats.Iterations
						if (d != 0 && d != int64(len(all))) || rounds < 0 || rounds > 1 || (d == 0 && rounds != 0) ||
							unfoldedStats.RuleFirings-stats.RuleFirings != copies || unfoldedStats.JoinProbes-stats.JoinProbes != copies {
							t.Fatalf("%s: Stats moved by more than copying %d root rows into %d answers:\nfolded   %+v\nunfolded %+v",
								cell, rootRows, len(all), *stats, *unfoldedStats)
						}
					}
				}
			}
		}
	}
	if folds == 0 {
		t.Fatal("no program carried a one-root renaming rule: the test checks nothing")
	}
	if overlaps == 0 {
		t.Fatal("no union of two or more roots overlapped: the order of first occurrences is untested")
	}
	t.Logf("%d programs, %d folded evaluations under magic off × elim off, %d over overlapping roots", len(cases), folds, overlaps)
}
