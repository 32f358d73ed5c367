package sqo

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/magic"
	"repro/internal/workload"
)

// goalCase is one program of the goal-constant invariance corpus, with a
// database when it has one.
type goalCase struct {
	name string
	prog *Program
	ics  []IC
	db   *DB
}

// goalCorpus is Figure 1, goodpath and the other examples/ programs (the
// runnable ones and examples/lint/*.dl), optimize-cold's programs, and
// workload.RandomProgram seeds 1-40.
func goalCorpus(t *testing.T) []goalCase {
	t.Helper()
	var out []goalCase
	for _, c := range exampleCases(t) {
		out = append(out, goalCase{c.name, c.prog, c.ics, c.db})
	}
	files, err := filepath.Glob("examples/lint/*.dl")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/lint: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		u := mustParseFile(t, f)
		out = append(out, goalCase{f, u.Program, u.ICs, NewDBFrom(u.Facts)})
	}
	flavours := func(k int) goalCase {
		var src, ics string
		for i := 0; i < k; i++ {
			src += fmt.Sprintf("p(X, Y) :- e%d(X, Y).\np(X, Y) :- e%d(X, Z), p(Z, Y).\n", i, i)
		}
		for i := 0; i+1 < k; i++ {
			ics += fmt.Sprintf(":- e%d(X, Y), e%d(Y, Z).\n", i+1, i)
		}
		return goalCase{fmt.Sprintf("flavours-%d", k), MustParseProgram(src + "?- p.\n"), MustParseICs(ics), nil}
	}
	out = append(out,
		goalCase{"funcdep-point", MustParseProgram("conflict(E) :- manages(E, M1), manages(E, M2), M1 < M2.\n" +
			"boss(E, M) :- manages(E, M).\nboss(E, M) :- manages(E, X), boss(X, M).\n" +
			"top(E, M) :- boss(E, M), ceo(M).\n?- top(1, M).\n"),
			MustParseICs(":- manages(E, M1), manages(E, M2), M1 != M2.\n"), nil},
		goalCase{"trendy", MustParseProgram("buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).\n?- buys(0, Y).\n"), nil,
			NewDBFrom(MustParseFacts("trendy(0). trendy(1). likes(0, 10). likes(1, 11). likes(2, 12)."))},
		flavours(2), flavours(3), flavours(4))
	for seed := int64(1); seed <= 40; seed++ {
		src, ics, facts := workload.RandomProgram(seed)
		out = append(out, goalCase{fmt.Sprintf("random-%02d", seed), MustParseProgram(src), MustParseICs(ics), NewDBFrom(facts)})
	}
	return out
}

func mustParseFile(t *testing.T, path string) *Unit {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Parse(string(src))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return u
}

// goalsOfPattern returns, for every binding pattern of the query
// predicate with a bound position (each position alone, then all of
// them), goals of that pattern whose constants lie below, above and on
// the constants the program and its ic's mention — a pass that compared
// a goal constant with one of them would tell these apart.
func goalsOfPattern(t *testing.T, p *Program, ics []IC) [][][]Term {
	t.Helper()
	ar, err := p.PredArity()
	if err != nil {
		t.Fatal(err)
	}
	n := ar[p.Query]
	lo, hi := 0.0, 0.0
	var mentioned []Term
	note := func(ts []Term) {
		for _, u := range ts {
			if u.Kind == ast.Num {
				lo, hi = min(lo, u.Val), max(hi, u.Val)
				if len(mentioned) < 2 && !slices.ContainsFunc(mentioned, u.Equal) {
					mentioned = append(mentioned, u)
				}
			}
		}
	}
	for _, r := range p.Rules {
		note(r.Head.Args)
		for _, a := range r.Pos {
			note(a.Args)
		}
		for _, c := range r.Cmp {
			note([]Term{c.Left, c.Right})
		}
	}
	for _, ic := range ics {
		for _, a := range ic.Pos {
			note(a.Args)
		}
		for _, c := range ic.Cmp {
			note([]Term{c.Left, c.Right})
		}
	}
	consts := append([]Term{ast.N(lo - 1), ast.N(hi + 1)}, mentioned...)
	var masks [][]bool
	for i := 0; i < n; i++ {
		m := make([]bool, n)
		m[i] = true
		masks = append(masks, m)
	}
	if n > 1 {
		all := make([]bool, n)
		for i := range all {
			all[i] = true
		}
		masks = append(masks, all)
	}
	var out [][][]Term
	for _, m := range masks {
		var goals [][]Term
		for _, c := range consts {
			g := make([]Term, n)
			for i := range g {
				g[i] = ast.V(fmt.Sprintf("G%d", i))
				if m[i] {
					g[i] = c
				}
			}
			goals = append(goals, g)
		}
		out = append(out, goals)
	}
	return out
}

// withGoal is p with goal in place of its own; p is not written.
func withGoal(p *Program, goal []Term) *Program {
	q := *p
	q.Goal = goal
	return &q
}

// TestRewritesIgnoreGoalConstants is the invariant sqod's rewrite cache
// rests on: it keys a prepared query on the goal's binding pattern, not
// its constants, which is sound only while no rewrite reads a constant.
// For every program of the corpus and every goal pattern: the optimizer
// at two goals of the pattern emits byte-identical rules and an
// identical Explain; magic.Rewrite of the optimizer's output at the
// first goal, bound to the second, renders exactly as magic.Rewrite at
// the second; and the query prepared at the first goal, run at the
// second, answers what QueryCtx answers there. A pass that starts to
// read the goal fails here, naming the program.
func TestRewritesIgnoreGoalConstants(t *testing.T) {
	ctx := context.Background()
	patterns := 0
	for _, c := range goalCorpus(t) {
		for _, goals := range goalsOfPattern(t, c.prog, c.ics) {
			patterns++
			g1 := goals[0]
			first, err := OptimizeCtx(ctx, withGoal(c.prog, g1), c.ics, DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			m1, magicErr := magic.Rewrite(first.Program)
			for _, g2 := range goals[1:] {
				label := fmt.Sprintf("%s: %s vs %s", c.name, withGoal(c.prog, g1).GoalAtom(), withGoal(c.prog, g2).GoalAtom())
				second, err := OptimizeCtx(ctx, withGoal(c.prog, g2), c.ics, DefaultOptions())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if a, b := first.Program.String(), second.Program.String(); a != b {
					t.Fatalf("%s: the optimizer's rules depend on the goal's constants:\n%s\nvs\n%s", label, a, b)
				}
				if a, b := Explain(first), Explain(second); a != b {
					t.Fatalf("%s: Explain depends on the goal's constants:\n%s\nvs\n%s", label, a, b)
				}
				m2, err := magic.Rewrite(second.Program)
				if (err == nil) != (magicErr == nil) {
					t.Fatalf("%s: magic applies at one goal only: %v vs %v", label, magicErr, err)
				}
				if err == nil {
					if a, b := FormatProgram(m1.Bind(g2)), FormatProgram(m2.Program); a != b {
						t.Fatalf("%s: Bind(Rewrite(first), second) differs from Rewrite(second):\n%s\nvs\n%s", label, a, b)
					}
				}
				if c.db == nil {
					continue
				}
				for _, opts := range []EvalOptions{{Seminaive: true}, {Seminaive: true, Magic: MagicOff, Elim: ElimOff, Stream: true}} {
					pq, err := Prepare(first.Program, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					res, stats, err := pq.Run(ctx, c.db, g2, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, wantStats, err := QueryCtx(ctx, second.Program, c.db, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got := res.Tuples(); fmt.Sprint(got) != fmt.Sprint(want) || !stats.Equal(wantStats) {
						t.Fatalf("%s %+v: prepared at the first goal, run at the second:\n%v %+v\nQueryCtx at the second:\n%v %+v",
							label, opts, got, *stats, want, *wantStats)
					}
				}
			}
		}
	}
	if patterns < 100 {
		t.Fatalf("only %d goal patterns checked", patterns)
	}
	t.Logf("%d goal patterns", patterns)
}
