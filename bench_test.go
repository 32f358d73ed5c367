package sqo

// Benchmarks, one per experiment of DESIGN.md's per-experiment index.
// `go test -bench=. -benchmem` regenerates the performance side of
// EXPERIMENTS.md; TestExperiments holds its counters.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/order"
	"repro/internal/rewrite"
	"repro/internal/tcm"
	"repro/internal/workload"
)

const goodPathSrc = `
	path(X, Y) :- step(X, Y).
	path(X, Y) :- step(X, Z), path(Z, Y).
	goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
	?- goodPath.
`

const figure1Src = `
	p(X, Y) :- a(X, Y).
	p(X, Y) :- b(X, Y).
	p(X, Y) :- a(X, Z), p(Z, Y).
	p(X, Y) :- b(X, Z), p(Z, Y).
	?- p.
`

// BenchmarkF1QueryTree measures construction of the Figure 1 query
// forest (optimization itself, no evaluation).
func BenchmarkF1QueryTree(b *testing.B) {
	p := MustParseProgram(figure1Src)
	ics := MustParseICs(`:- a(X, Y), b(Y, Z).`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Optimize(p, ics)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Satisfiable {
			b.Fatal("unexpected unsatisfiable")
		}
	}
}

// benchEval factors the evaluate-original-vs-rewritten pattern.
func benchEval(b *testing.B, prog *Program, db *DB) {
	b.ReportAllocs()
	var probes int64
	for i := 0; i < b.N; i++ {
		_, stats, err := Eval(prog, db)
		if err != nil {
			b.Fatal(err)
		}
		probes = stats.JoinProbes
	}
	b.ReportMetric(float64(probes), "probes")
}

// BenchmarkE1GoodPath evaluates the Example 3.1 rule with and without
// the Y > X residue.
func BenchmarkE1GoodPath(b *testing.B) {
	p := MustParseProgram(`
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	ics := MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
	res, err := Optimize(p, ics)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDBFrom(workload.StarPaths(40, 40))
	b.Run("original", func(b *testing.B) { benchEval(b, p, db) })
	b.Run("rewritten", func(b *testing.B) { benchEval(b, res.Program, db) })
}

// BenchmarkE2Threshold evaluates the Section 3 threshold example.
func BenchmarkE2Threshold(b *testing.B) {
	p := MustParseProgram(goodPathSrc)
	ics := MustParseICs(`
		:- startPoint(X), step(X, Y), X < 100.
		:- step(X, Y), X >= Y.
	`)
	res, err := Optimize(p, ics)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDBFrom(workload.GoodPath(200, 100, 40))
	b.Run("original", func(b *testing.B) { benchEval(b, p, db) })
	b.Run("rewritten", func(b *testing.B) { benchEval(b, res.Program, db) })
}

// BenchmarkE3ABPaths evaluates the Figure 1 two-flavour closure: both
// programs as written (Eval), and the rewritten one as a query
// (QueryCtx), which reads its three-root union from the roots' rows.
func BenchmarkE3ABPaths(b *testing.B) {
	p := MustParseProgram(figure1Src)
	ics := MustParseICs(`:- a(X, Y), b(Y, Z).`)
	res, err := Optimize(p, ics)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDBFrom(workload.ABComb(8, 14, 14))
	b.Run("original", func(b *testing.B) { benchEval(b, p, db) })
	b.Run("rewritten", func(b *testing.B) { benchEval(b, res.Program, db) })
	b.Run("rewritten-QueryCtx", func(b *testing.B) {
		opts := DefaultEvalOptions()
		opts.Elim = ElimOff // as in BenchmarkQueryFixpoint: only the union differs from "rewritten"
		b.ReportAllocs()
		var probes int64
		for i := 0; i < b.N; i++ {
			_, stats, err := QueryCtx(context.Background(), res.Program, db, opts)
			if err != nil {
				b.Fatal(err)
			}
			probes = stats.JoinProbes
		}
		b.ReportMetric(float64(probes), "probes")
	})
}

// BenchmarkE4Construction measures query-tree construction cost as the
// program family grows.
func BenchmarkE4Construction(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		src := ""
		for i := 0; i < k; i++ {
			src += fmt.Sprintf("p(X, Y) :- e%d(X, Y).\n", i)
			src += fmt.Sprintf("p(X, Y) :- e%d(X, Z), p(Z, Y).\n", i)
		}
		src += "?- p.\n"
		icsSrc := ""
		for i := 0; i+1 < k; i++ {
			icsSrc += fmt.Sprintf(":- e%d(X, Y), e%d(Y, Z).\n", i+1, i)
		}
		p := MustParseProgram(src)
		ics := MustParseICs(icsSrc)
		b.Run(fmt.Sprintf("flavours=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(p, ics); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Emptiness measures the NP emptiness decision on join
// chains (Theorem 5.2(1)).
func BenchmarkE5Emptiness(b *testing.B) {
	for _, l := range []int{4, 8} {
		body := ""
		for i := 0; i < l; i++ {
			body += fmt.Sprintf("r%d(X%d, X%d), ", i, i, i+1)
		}
		src := fmt.Sprintf("q(X0, X%d) :- %s.\n?- q.\n", l, body[:len(body)-2])
		p := MustParseProgram(src)
		ics := MustParseICs(fmt.Sprintf(":- r%d(X, Y), r%d(Y, Z).", l/2-1, l/2))
		b.Run(fmt.Sprintf("chain=%d", l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				empty, decided, err := Empty(p, ics, EmptinessOptions{})
				if err != nil || !decided || !empty {
					b.Fatalf("empty=%v decided=%v err=%v", empty, decided, err)
				}
			}
		})
	}
}

// BenchmarkE6Containment measures the Proposition 5.1 reduction round
// trip on the recursive instance.
func BenchmarkE6Containment(b *testing.B) {
	p := MustParseProgram(`
		q(X, Y) :- a(X, Y).
		q(X, Y) :- a(X, Z), q(Z, Y).
		?- q.
	`)
	ics := MustParseICs(`:- a(X, Y), a(Y, Z).`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rp, ucq, err := SatisfiabilityAsNonContainment(p, ics)
		if err != nil {
			b.Fatal(err)
		}
		contained, err := ProgramContainedInUCQ(rp, ucq)
		if err != nil {
			b.Fatal(err)
		}
		if contained {
			b.Fatal("single edges satisfy the constraint; must not be contained")
		}
	}
}

// BenchmarkE7TwoCounter measures the Theorem 5.4 pipeline: encode a
// machine, run it, materialize the trace, and check consistency.
func BenchmarkE7TwoCounter(b *testing.B) {
	m := tcm.CountdownMachine(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, ics, err := EncodeTwoCounter(m)
		if err != nil {
			b.Fatal(err)
		}
		facts, halted := TwoCounterTraceDB(m, 100)
		if !halted {
			b.Fatal("machine should halt")
		}
		tuples, _, err := Query(prog, NewDBFrom(facts))
		if err != nil {
			b.Fatal(err)
		}
		if len(tuples) != 1 {
			b.Fatal("halt not derived")
		}
		_ = ics
	}
}

// BenchmarkA1LabelsVsAdorn compares the full pipeline against the
// core-only algorithm on optimization time (the ablation's evaluation
// side is A1 in TestExperiments).
func BenchmarkA1LabelsVsAdorn(b *testing.B) {
	p := MustParseProgram(goodPathSrc)
	ics := MustParseICs(`
		:- startPoint(X), step(X, Y), X < 100.
		:- step(X, Y), X >= Y.
	`)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("core-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := OptimizeCtx(context.Background(), p, ics, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA2BaselineVsQtree compares [CGM88] per-rule optimization
// against the query-tree algorithm on optimization time.
func BenchmarkA2BaselineVsQtree(b *testing.B) {
	p := MustParseProgram(figure1Src)
	ics := MustParseICs(`:- a(X, Y), b(Y, Z).`)
	b.Run("cgm88", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BaselineOptimize(p, ics)
		}
	})
	b.Run("qtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Optimize(p, ics); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pointQueryBench is the serving path's unit of work: a goal-directed
// point query (25 answers, ~25 derived tuples, one per round) over a
// 2,000-fact EDB of 40 disjoint 50-edge chains.
func pointQueryBench() (*Program, []Atom) {
	var facts []Atom
	for c := 0; c < 40; c++ {
		for i := 0; i < 50; i++ {
			n := float64(c*100 + i)
			facts = append(facts, ast.NewAtom("edge", ast.N(n), ast.N(n+1)))
		}
	}
	prog := MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		?- path(1725, Y).
	`)
	return prog, facts
}

func benchPointQuery(b *testing.B, prog *Program, db func() *DB) {
	opts := DefaultEvalOptions()
	opts.Elim = ElimOff // as sqod evaluates: it caches the boundedness verdict
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuples, _, err := QueryCtx(context.Background(), prog, db(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tuples) != 25 {
			b.Fatalf("answers = %d, want 25", len(tuples))
		}
	}
}

// BenchmarkPointQuerySharedEDB evaluates every query over one DB, the
// way sqod serves a dataset snapshot: the interned base is built once.
func BenchmarkPointQuerySharedEDB(b *testing.B) {
	prog, facts := pointQueryBench()
	shared := NewDBFrom(facts)
	benchPointQuery(b, prog, func() *DB { return shared })
}

// BenchmarkPointQueryFreshEDB gives every query a database nothing has
// evaluated yet, so each one pays for interning all 2,000 facts (the
// clone itself is outside the timer).
func BenchmarkPointQueryFreshEDB(b *testing.B) {
	prog, facts := pointQueryBench()
	src := NewDBFrom(facts)
	benchPointQuery(b, prog, func() *DB {
		b.StopTimer()
		db := src.Clone()
		b.StartTimer()
		return db
	})
}

// fixpointBench is a full fixpoint whose cost is the tuples it derives.
type fixpointBench struct {
	name string
	prog *Program
	db   *DB
}

// fixpointBenches: a long thin closure (200 rounds), a dense one that
// rederives most tuples many times, the Figure 1 two-flavour closure, and
// the first and the third as the optimizer emits them — the query
// relation defined by `path(V0, V1) :- path_q0(V0, V1).`, which QueryCtx
// folds so that the answers are the root's rows instead of a copy of
// them, and by the three-root union `p(V0, V1) :- p_q0(V0, V1).` …
// `p(V0, V1) :- p_q2(V0, V1).`, which QueryCtx reads from the roots' rows.
func fixpointBenches() []fixpointBench {
	tcEdge := MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		?- path.
	`)
	tcStep := MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	optimized, err := Optimize(tcStep, MustParseICs(`:- step(X, Y), Y <= X.`))
	if err != nil {
		panic(err)
	}
	figure1, err := Optimize(MustParseProgram(figure1Src), MustParseICs(`:- a(X, Y), b(Y, Z).`))
	if err != nil {
		panic(err)
	}
	return []fixpointBench{
		{"tc-chain(200)", tcStep, NewDBFrom(workload.Chain(0, 200))},
		{"tc-random(150,450)", tcEdge, NewDBFrom(workload.RandomGraph(150, 450, 7))},
		{"ab-comb(8,14,14)", MustParseProgram(figure1Src), NewDBFrom(workload.ABComb(8, 14, 14))},
		{"tc-chain(200)-optimized", optimized.Program, NewDBFrom(workload.Chain(0, 200))},
		{"ab-comb(8,14,14)-optimized", figure1.Program, NewDBFrom(workload.ABComb(8, 14, 14))},
	}
}

// BenchmarkQueryFixpoint reports what a derived tuple costs — ns/tuple
// and allocs/tuple, the library twins of the end-to-end benchmark's
// eval.ns_per_tuple and eval.allocs_per_tuple — for QueryCtx over the
// fixpointBenches, answers converted and all. Compare the optimized
// case across the renaming fold by ns/op: the fold halves the
// TuplesDerived that ns/tuple divides by.
func BenchmarkQueryFixpoint(b *testing.B) {
	opts := DefaultEvalOptions()
	opts.Elim = ElimOff // as sqod evaluates: it caches the boundedness verdict
	for _, w := range fixpointBenches() {
		b.Run(w.name, func(b *testing.B) {
			_, stats, err := QueryCtx(context.Background(), w.prog, w.db, opts) // builds the interned base
			if err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := QueryCtx(context.Background(), w.prog, w.db, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			tuples := float64(stats.TuplesDerived) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/tuples, "allocs/tuple")
		})
	}
}

// TestQueryAllocationGuard bounds the allocations of the two shapes of
// query the engine serves, in the style of TestImpliesDoesNotAllocate:
// a full fixpoint must not allocate per derived tuple (19,879 tuples
// here; a Tuple and a key string each used to make 42.9k allocations,
// it now takes about 500), and a point query over a shared EDB stays
// under 500 (735 before, about 330 now).
func TestQueryAllocationGuard(t *testing.T) {
	opts := DefaultEvalOptions()
	opts.Elim = ElimOff
	full := fixpointBenches()[1]
	point, facts := pointQueryBench()
	for _, c := range []struct {
		name string
		prog *Program
		db   *DB
		max  float64
	}{
		{"full tc-random(150,450)", full.prog, full.db, 10000},
		{"point query, shared EDB", point, NewDBFrom(facts), 500},
	} {
		run := func() {
			if _, _, err := QueryCtx(context.Background(), c.prog, c.db, opts); err != nil {
				t.Fatal(err)
			}
		}
		run() // builds the interned base
		if got := testing.AllocsPerRun(5, run); got > c.max {
			t.Errorf("%s: %.0f allocations per query, want at most %.0f", c.name, got, c.max)
		}
	}
}

// BenchmarkOrderImplies is the optimizer's inner question — does this
// conjunction of order atoms imply that one — asked the way PushOrder
// asks it: one Set, a vocabulary of candidate atoms over its variables
// and the program's constants, some of them absent from the Set.
func BenchmarkOrderImplies(b *testing.B) {
	x, y, z := ast.V("X"), ast.V("Y"), ast.V("Z")
	set := order.NewSet(
		ast.NewCmp(x, ast.LT, y), ast.NewCmp(y, ast.LE, z),
		ast.NewCmp(z, ast.LT, ast.N(9)), ast.NewCmp(x, ast.GE, ast.N(2)), ast.NewCmp(x, ast.NE, z))
	var cands []ast.Cmp
	for _, op := range []ast.CmpOp{ast.LT, ast.LE, ast.GT, ast.GE, ast.EQ, ast.NE} {
		for _, l := range []ast.Term{x, y, z} {
			for _, r := range []ast.Term{x, y, z, ast.N(2), ast.N(5), ast.N(9), ast.N(12)} {
				cands = append(cands, ast.NewCmp(l, op, r))
			}
		}
	}
	implied := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			if set.Implies(c) {
				implied++
			}
		}
	}
	if implied != 48*b.N {
		b.Fatalf("implied %d of %d candidates per pass, want 48", implied/b.N, len(cands))
	}
}

// BenchmarkPushOrder runs the selection-pushing pass over the programs
// the optimizer hands it (after NormalizeOrder and RewriteLocalPlanned) for
// the 20 random programs of the optimize-cold workload.
func BenchmarkPushOrder(b *testing.B) {
	var inputs []*Program
	for seed := int64(1); seed <= 20; seed++ {
		src, ics, _ := workload.RandomProgram(seed)
		p := rewrite.NormalizeOrder(MustParseProgram(src))
		inputs = append(inputs, rewrite.RewriteLocalPlanned(p, rewrite.PlanICs(MustParseICs(ics))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range inputs {
			if _, err := rewrite.PushOrder(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// viewUpdateBench materializes the view the end-to-end benchmark's
// serve-mixed workload keeps live: goodPath over 40 disjoint 50-edge
// chains (51k path tuples, 240 answers), compiled the way sqod compiles
// it. leaf attaches a fresh leaf to a chain node and detaches it again
// (up to 51 path tuples each way); cut removes a chain edge and restores
// it (DRed over-deletes and re-derives up to 650).
func viewUpdateBench(tb testing.TB) (v *View, leaf, cut func(i int)) {
	var facts []Atom
	for c := 0; c < 40; c++ {
		for i := 0; i <= 50; i++ {
			n := float64(c*100 + i)
			if i < 50 {
				facts = append(facts, ast.NewAtom("edge", ast.N(n), ast.N(n+1)))
			}
			switch i {
			case 0, 10:
				facts = append(facts, ast.NewAtom("startPoint", ast.N(n)))
			case 40, 45, 50:
				facts = append(facts, ast.NewAtom("endPoint", ast.N(n)))
			}
		}
	}
	res, err := Optimize(MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`), MustParseICs(`:- edge(X, Y), Y <= X.`))
	if err != nil {
		tb.Fatal(err)
	}
	v, err = Materialize(res.Program, NewDBFrom(facts), ViewOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	apply := func(adds, dels []Atom) {
		if _, err := v.Apply(adds, dels); err != nil {
			tb.Fatal(err)
		}
	}
	leaf = func(i int) {
		c, pos := i%40, i*7%51
		e := []Atom{ast.NewAtom("edge", ast.N(float64(c*100+pos)), ast.N(float64(c*100+60+i/40%39)))}
		apply(e, nil)
		apply(nil, e)
	}
	cut = func(i int) {
		c, pos := i%40, i*7%50
		e := []Atom{ast.NewAtom("edge", ast.N(float64(c*100+pos)), ast.N(float64(c*100+pos+1)))}
		apply(nil, e)
		apply(e, nil)
	}
	return v, leaf, cut
}

// BenchmarkViewUpdate reports what one update pair costs a live view —
// ns/pair and B/pair, the library twins of the end-to-end benchmark's
// incr.apply_add_us + incr.apply_retract_us and incr.cascade_retract_ms.
// Both should follow the tuples the pair changes, not the 51k the view
// holds.
func BenchmarkViewUpdate(b *testing.B) {
	v, leaf, cut := viewUpdateBench(b)
	for _, w := range []struct {
		name string
		pair func(int)
	}{{"leaf-pair", leaf}, {"cut-restore-pair", cut}} {
		b.Run(w.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.pair(i)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pair")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/pair")
		})
	}
	if got, err := v.Answers(); err != nil || len(got) != 240 {
		b.Fatalf("answers after the pairs = %d (%v), want 240", len(got), err)
	}
}

// TestViewUpdateAllocationGuard bounds what a live view allocates for
// the two things sqod asks of it between queries: a leaf attach + detach
// pair stays under 256 KB (8.56 MB when a retraction copied and
// re-indexed the relation it shrank, about 30 KB now), and reading the
// 240 answers under 2,000 allocations (24,132 when every comparison of
// the sort rendered two keys).
func TestViewUpdateAllocationGuard(t *testing.T) {
	v, leaf, _ := viewUpdateBench(t)
	const pairs = 200
	leaf(0) // builds the indexes the delta joins probe
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= pairs; i++ {
		leaf(i)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / pairs; got > 256<<10 {
		t.Errorf("leaf attach + detach pair allocates %d bytes, want at most %d", got, 256<<10)
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := v.Answers(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2000 {
		t.Errorf("Answers: %.0f allocations, want at most 2000", got)
	}
}

// compileCold is one cold compile of a parsed unit, as a request pays
// for it: the optimizer, then the linter.
func compileCold(tb testing.TB, u *Unit) (*Result, *LintReport) {
	ctx := context.Background()
	res, err := OptimizeCtx(ctx, u.Program, u.ICs, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return res, Lint(ctx, u.Program, u.ICs, u.Facts, LintOptions{})
}

// BenchmarkCompileCold is the library twin of the end-to-end
// optimize-cold workload: TestCompileGolden's inputs through Parse,
// OptimizeCtx, Lint and the rendering of the optimizer's output.
func BenchmarkCompileCold(b *testing.B) {
	corpus := compileCorpus(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, in := range corpus {
			u, err := Parse(in.src)
			if err != nil {
				b.Fatal(err)
			}
			res, _ := compileCold(b, u)
			_ = FormatProgram(res.Program) + Explain(res)
		}
	}
}

// TestCompileAllocationGuard bounds the allocations of a cold compile
// (OptimizeCtx + Lint) of Figure 1 and of random-18, the heaviest of
// compileCorpus's random programs, in the style of
// TestQueryAllocationGuard. They took 6,517 and 21,488 (7,020 and
// 22,696 under -race) while the optimizer rendered its keys through fmt
// at every comparison and cloned a substitution per candidate atom;
// about 3,360 and 13,970 now, the same under -race within 0.5%.
func TestCompileAllocationGuard(t *testing.T) {
	corpus := compileCorpus(t)
	for _, c := range []struct {
		name string
		max  float64
	}{
		{"figure1", 3900},
		{"random-18", 16000},
	} {
		var u *Unit
		for _, in := range corpus {
			if in.name == c.name {
				var err error
				if u, err = Parse(in.src); err != nil {
					t.Fatal(err)
				}
			}
		}
		if u == nil {
			t.Fatalf("%s: not in the compile corpus", c.name)
		}
		if got := testing.AllocsPerRun(5, func() { compileCold(t, u) }); got > c.max {
			t.Errorf("%s: %.0f allocations per compile, want at most %.0f", c.name, got, c.max)
		}
	}
}
