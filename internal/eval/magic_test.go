package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/refeval"
)

// answerSet renders query tuples as a sorted key list. Magic and
// bottom-up derive tuples in different orders, so answers compare as
// sets, never as sequences.
func answerSet(tuples []Tuple) []string {
	out := make([]string, len(tuples))
	for i, t := range tuples {
		parts := make([]string, len(t))
		for j, term := range t {
			parts[j] = term.Key()
		}
		out[i] = strings.Join(parts, "\x00")
	}
	sort.Strings(out)
	return out
}

// requireAnswers asserts that tuples — QueryCtx's answers for p over db
// — are exactly the reference evaluator's.
func requireAnswers(t *testing.T, label string, p *ast.Program, db *DB, tuples []Tuple) {
	t.Helper()
	got := make([]string, len(tuples))
	for i, tup := range tuples {
		got[i] = ast.NewAtom(p.Query, tup...).String()
	}
	sort.Strings(got)
	if want := refeval.Answers(p, dbFacts(db)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: answers differ from the reference:\n got %v\nwant %v", label, got, want)
	}
}

// chainEdges adds edge(i, i+1) facts for i in [from, from+n) —
// workload.Chain's shape, inlined because workload imports eval.
func chainEdges(db *DB, from, n int) {
	for i := from; i < from+n; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i+1))))
	}
}

func chainDB(n int) *DB {
	db := NewDB()
	chainEdges(db, 0, n)
	return db
}

// disjointChainsDB builds k disjoint chains of n edges each (chain c
// occupies nodes [c*1000, c*1000+n]); a goal bound to node 0 reaches
// only the first chain, so demand pruning has something to prune.
func disjointChainsDB(k, n int) *DB {
	db := NewDB()
	for c := 0; c < k; c++ {
		chainEdges(db, c*1000, n)
	}
	return db
}

// TestMagicDifferentialTC is the headline property: a bound point
// query on transitive closure answers identically with and without the
// magic rewrite — while magic does less work. The 8 x 50 instance is
// large enough for long rounds; the 3 x 14 one is small enough for the
// reference evaluator, which every cell must match there.
func TestMagicDifferentialTC(t *testing.T) {
	for _, variant := range []string{
		// Right-linear: demand prunes to the reachable set.
		`path(X, Y) :- edge(X, Y).
		 path(X, Y) :- edge(X, Z), path(Z, Y).
		 ?- path(0, Y).`,
		// Left-linear: the recursive call keeps the head's binding.
		`path(X, Y) :- edge(X, Y).
		 path(X, Y) :- path(X, Z), edge(Z, Y).
		 ?- path(0, Y).`,
		// Fully bound goal.
		`path(X, Y) :- edge(X, Y).
		 path(X, Y) :- edge(X, Z), path(Z, Y).
		 ?- path(0, 10).`,
	} {
		for _, size := range []struct {
			chains, edges int
			reference     bool
		}{{8, 50, false}, {3, 14, true}} {
			p := parser.MustParseProgram(variant)
			db := disjointChainsDB(size.chains, size.edges)
			var base []string
			baseLabel := ""
			var offDerived, onDerived int64
			for _, mode := range []MagicMode{MagicOff, MagicAuto} {
				label := string(mode)
				tuples, stats, err := QueryCtx(context.Background(), p, db, Options{Magic: mode})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if wantMagic := mode != MagicOff; stats.MagicApplied != wantMagic {
					t.Fatalf("%s: MagicApplied = %v, want %v", label, stats.MagicApplied, wantMagic)
				}
				if mode == MagicOff {
					offDerived = stats.TuplesDerived
				} else {
					onDerived = stats.TuplesDerived
				}
				if size.reference {
					requireAnswers(t, label, p, db, tuples)
				}
				got := answerSet(tuples)
				if base == nil {
					base, baseLabel = got, label
					continue
				}
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("answers diverged: %s (%d) vs %s (%d)\n%v\nvs\n%v",
						label, len(got), baseLabel, len(base), got, base)
				}
			}
			if onDerived >= offDerived {
				t.Errorf("magic derived %d tuples, bottom-up %d; expected pruning on\n%s",
					onDerived, offDerived, variant)
			}
		}
	}
}

// TestMagicPointQueryPruning pins the ISSUE acceptance bound: on the
// disjoint-chains workload a bound point query under magic derives at
// least 10x fewer tuples than bottom-up.
func TestMagicPointQueryPruning(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(0, Y).`)
	// 15 disjoint chains; the goal reaches only the first, and the
	// right-linear rewrite still re-derives that chain's closure, so
	// the pruning factor is just under the chain count.
	db := disjointChainsDB(15, 40)
	opts := DefaultOptions()
	opts.Magic = MagicOff
	offTuples, offStats, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Magic = MagicAuto
	onTuples, onStats, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answerSet(onTuples), answerSet(offTuples)) {
		t.Fatalf("answers diverged: %d vs %d tuples", len(onTuples), len(offTuples))
	}
	if onStats.TuplesDerived*10 > offStats.TuplesDerived {
		t.Errorf("magic derived %d tuples, want <= 1/10 of bottom-up's %d",
			onStats.TuplesDerived, offStats.TuplesDerived)
	}
	if onStats.PeakMaterialized >= offStats.PeakMaterialized {
		t.Errorf("magic peak %d >= bottom-up peak %d", onStats.PeakMaterialized, offStats.PeakMaterialized)
	}
}

// TestMagicFallback: goals the rewrite cannot use still answer
// correctly (bottom-up plus goal filtering) with MagicApplied false.
func TestMagicFallback(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unbound goal", `p(X, Y) :- e(X, Y). ?- p(A, B).`},
		{"repeated variable", `p(X, Y) :- e(X, Y). ?- p(V, V).`},
		{"no goal", `p(X, Y) :- e(X, Y). ?- p.`},
	}
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(1)))
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(2)))
	db.AddFact(ast.NewAtom("e", ast.N(2), ast.N(2)))
	for _, tc := range cases {
		p := parser.MustParseProgram(tc.src)
		tuples, stats, err := QueryCtx(context.Background(), p, db, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats.MagicApplied {
			t.Errorf("%s: MagicApplied = true, want fallback", tc.name)
		}
		want := 3
		if tc.name == "repeated variable" {
			want = 2 // the diagonal: (1,1) and (2,2)
		}
		if len(tuples) != want {
			t.Errorf("%s: %d answers, want %d: %v", tc.name, len(tuples), want, answerSet(tuples))
		}
	}
}

// TestGoalFilterWithoutMagic: goal constants select even under
// MagicOff, and repeated goal variables force equality.
func TestGoalFilterWithoutMagic(t *testing.T) {
	p := parser.MustParseProgram(`p(X, Y) :- e(X, Y). ?- p(1, Y).`)
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(2)))
	db.AddFact(ast.NewAtom("e", ast.N(3), ast.N(4)))
	opts := DefaultOptions()
	opts.Magic = MagicOff
	tuples, _, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || !tuples[0][0].Equal(ast.N(1)) || !tuples[0][1].Equal(ast.N(2)) {
		t.Fatalf("goal filter failed: %v", answerSet(tuples))
	}
}

// TestStreamDifferential: streaming unfolding never changes answers
// and lowers the materialized footprint on a pipeline-shaped program.
func TestStreamDifferential(t *testing.T) {
	p := parser.MustParseProgram(`
		hop1(X, Y) :- edge(X, Y).
		hop2(X, Y) :- hop1(X, Z), edge(Z, Y).
		hop3(X, Y) :- hop2(X, Z), edge(Z, Y).
		q(X, Y) :- hop3(X, Z), edge(Z, Y).
		?- q.`)
	db := NewDB()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(rng.Intn(30))), ast.N(float64(rng.Intn(30)))))
	}
	var base []string
	var plainPeak, streamPeak int64
	for _, stream := range []bool{false, true} {
		tuples, stats, err := QueryCtx(context.Background(), p, db, Options{Stream: stream})
		if err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
		if stream {
			streamPeak = stats.PeakMaterialized
		} else {
			plainPeak = stats.PeakMaterialized
		}
		got := answerSet(tuples)
		if base == nil {
			requireAnswers(t, "plain", p, db, tuples)
			base = got
			continue
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("stream=%v: answers diverged (%d vs %d)", stream, len(got), len(base))
		}
	}
	if streamPeak >= plainPeak {
		t.Errorf("stream peak %d >= plain peak %d; pipeline should not materialize hops", streamPeak, plainPeak)
	}
}

// TestMagicStreamCombined: both rewrites stacked still answer
// identically to plain bottom-up.
func TestMagicStreamCombined(t *testing.T) {
	p := parser.MustParseProgram(`
		hop(X, Y) :- edge(X, Y).
		path(X, Y) :- hop(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(0, Y).`)
	db := chainDB(40)
	off := DefaultOptions()
	off.Magic = MagicOff
	wantTuples, _, err := QueryCtx(context.Background(), p, db, off)
	if err != nil {
		t.Fatal(err)
	}
	on := DefaultOptions()
	on.Stream = true
	gotTuples, stats, err := QueryCtx(context.Background(), p, db, on)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.MagicApplied {
		t.Error("MagicApplied = false, want true")
	}
	if !reflect.DeepEqual(answerSet(gotTuples), answerSet(wantTuples)) {
		t.Fatalf("answers diverged: %v vs %v", answerSet(gotTuples), answerSet(wantTuples))
	}
}

// TestMagicPeakDeterministic: PeakMaterialized is the same from run to
// run, like every other deterministic counter.
func TestMagicPeakDeterministic(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path.`)
	db := chainDB(25)
	var peak int64 = -1
	for run := 0; run < 2; run++ {
		_, stats, err := QueryCtx(context.Background(), p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.PeakMaterialized <= 0 || peak >= 0 && stats.PeakMaterialized != peak {
			t.Fatalf("run %d: PeakMaterialized = %d, want > 0 and %d", run, stats.PeakMaterialized, peak)
		}
		peak = stats.PeakMaterialized
	}
}

// addRenamingSeeds seeds a fuzz target with the query shapes
// foldRenaming decides on: the optimizer's one root, bound and unbound,
// and the near misses — a permuted head, a second rule for the query
// predicate, a chain of renamings.
func addRenamingSeeds(f *testing.F) {
	const root = `p_q0(X, Y) :- e(X, Y).
p_q0(X, Y) :- e(X, Z), p_q0(Z, Y).
`
	f.Add(root+"p(X, Y) :- p_q0(X, Y).\n?- p.", uint8(6), uint8(0))
	f.Add(root+"p(X, Y) :- p_q0(X, Y).\n?- p.", uint8(7), uint8(1))
	f.Add(root+"p(X, Y) :- p_q0(Y, X).\n?- p.", uint8(8), uint8(1))
	f.Add(root+"p(X, Y) :- p_q0(X, Y).\np(X, Y) :- f(X, Y).\n?- p.", uint8(9), uint8(2))
	f.Add(root+"q(X, Y) :- p_q0(X, Y).\np(X, Y) :- q(X, Y).\n?- p.", uint8(10), uint8(1))
}

// addSuffixedNameSeeds seeds FuzzMagic and FuzzElim with programs whose
// variables already carry the "_n" spelling renaming apart produces:
// the optimizer and linter once spun forever on the first two, and the
// boundedness check on the third.
func addSuffixedNameSeeds(f *testing.F) {
	f.Add("p(X_1, Y_1) :- e(X_1, Y_1), q(Y_1).\n?- p.\n:- e(X, Y), Y < X.", uint8(12), uint8(1))
	f.Add("h(A) :- e(A, X_1), f(X_1), k(A).\nh(A) :- e(A, X), f(X).\n?- h.", uint8(13), uint8(1))
	f.Add("p(X, Y) :- e(X, Y).\np(X_1, Y) :- f(X_1), p(X_1, Y).\n?- p.", uint8(14), uint8(1))
	f.Add("a(X, Y) :- b(X, Z), c(Z, Y).\nb(X, Y) :- e(X, Z_1), f(Z_1, Y), g(Z).\nc(X, Y) :- e(X, Y).\nq(X, Y) :- a(X, Y), g(Z_1).\n?- q.", uint8(15), uint8(1))
}

// FuzzMagic drives arbitrary programs with arbitrary binding patterns
// through the goal-directed path and asserts the one contract that
// matters: magic on, with and without streaming, answers exactly like
// bottom-up evaluation of the same goal — which, while the fixpoint is
// small enough for it, must answer like the reference evaluator — and
// so must the query prepared at another goal of the same binding
// pattern and run at this one, which is how sqod serves a point query
// with a new constant; run a second time, on the plans the first run
// left for the database's base, it answers the same in the same order
// with the same Stats. Mirrors FuzzPlan's EDB construction; the
// bottom-up baseline decides evaluability.
func FuzzMagic(f *testing.F) {
	f.Add(`path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
?- path.`, uint8(1), uint8(1))
	f.Add(`p(X, Y) :- e(X, Y).
p(X, Y) :- p(X, Z), e(Z, Y).
?- p.`, uint8(2), uint8(2))
	f.Add(`q(X) :- a(X, Y), b(Y), !c(X).
r(X) :- q(X), a(X, X).
?- r.`, uint8(3), uint8(1))
	f.Add(`s(X, Z) :- e(X, Y), f(Y, Z), X < Z.
t(X, Y) :- s(X, Y), s(Y, X).
?- t.`, uint8(4), uint8(3))
	f.Add(`mid(X, Y) :- e(X, Y).
q(X, Y) :- mid(X, Z), f(Z, Y).
?- q.`, uint8(5), uint8(1))
	addRenamingSeeds(f)
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
		// Synthesize two goals of one pattern from the binding mask: bit
		// i set binds argument i to a random domain constant.
		n := arity[p.Query]
		other := p.Goal
		if n > 0 {
			goal, alt := make([]ast.Term, n), make([]ast.Term, n)
			for i := 0; i < n; i++ {
				if bindMask&(1<<i) != 0 {
					goal[i], alt[i] = ast.N(float64(rng.Intn(6))), ast.N(float64(rng.Intn(6)))
				} else {
					goal[i] = ast.V(fmt.Sprintf("G%d", i))
					alt[i] = goal[i]
				}
			}
			p.Goal, other = goal, alt
		}

		off := Options{Magic: MagicOff, MaxTuples: 20000}
		baseTuples, baseStats, err := QueryCtx(context.Background(), p, db, off)
		if err != nil {
			return // baseline decides evaluability
		}
		if baseStats.TuplesDerived <= refMaxDerived {
			requireAnswers(t, "bottom-up", p, db, baseTuples)
		}
		want := answerSet(baseTuples)
		for _, stream := range []bool{false, true} {
			// Magic adds sup/demand tuples, so allow headroom.
			opts := Options{Stream: stream, MaxTuples: 40000}
			gotTuples, _, err := QueryCtx(context.Background(), p, db, opts)
			if err != nil {
				if errors.Is(err, ErrBudget) {
					continue // rewrite overhead can exceed even the headroom
				}
				t.Fatalf("stream=%v errored where baseline succeeded: %v", stream, err)
			}
			if got := answerSet(gotTuples); !reflect.DeepEqual(got, want) {
				t.Fatalf("stream=%v: answers diverged\n got %v\nwant %v\ngoal %s",
					stream, got, want, p.GoalAtom())
			}
			// Prepared at the other goal of the pattern, run at this one.
			at := *p
			at.Goal = other
			pq, err := Prepare(&at, opts)
			if err != nil {
				t.Fatalf("stream=%v: Prepare at %s: %v", stream, at.GoalAtom(), err)
			}
			res, stats, err := pq.Run(context.Background(), db, p.Goal, opts)
			if err != nil {
				t.Fatalf("stream=%v: prepared at %s, run errored where QueryCtx succeeded: %v", stream, at.GoalAtom(), err)
			}
			if got := answerSet(res.Tuples()); !reflect.DeepEqual(got, want) {
				t.Fatalf("stream=%v: prepared at %s, run at %s: answers diverged\n got %v\nwant %v",
					stream, at.GoalAtom(), p.GoalAtom(), got, want)
			}
			// Again, on the plans the first run left for this base.
			again, againStats, err := pq.Run(context.Background(), db, p.Goal, opts)
			if err != nil {
				t.Fatalf("stream=%v: second run errored: %v", stream, err)
			}
			if !reflect.DeepEqual(again.Tuples(), res.Tuples()) || !againStats.Equal(stats) {
				t.Fatalf("stream=%v: second run on cached plans differs:\n%v %+v\nfirst:\n%v %+v",
					stream, again.Tuples(), againStats, res.Tuples(), stats)
			}
		}
	})
}

// TestPreparedRunsConcurrently: one Prepared — a magic rewrite whose
// rules every Run shares — run from several goroutines at once, each at
// its own constant and alternating between two databases, so that runs
// swap the plans the Prepared keeps (one base's for the other's) while
// others read them; every run answers as QueryCtx does at that constant
// over that database, with the same Stats. Each run names its goal's
// variable apart, so that no run is an answer-memo hit: every one reads
// the shared plans.
func TestPreparedRunsConcurrently(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(0, Y).`)
	// The second database cuts every chain short and adds a constant, so
	// the two bases differ in lengths and in interner.
	db := disjointChainsDB(4, 20)
	dbs := [2]*DB{db, db.Replace("edge", append(slices.Clip(db.Lookup("edge").Tuples()[:50]),
		Tuple{ast.N(0), ast.N(99999)}))}
	opts := DefaultOptions()
	pq, err := Prepare(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n, runs = 8, 6
	goal := func(i int) []ast.Term { return []ast.Term{ast.N(float64(i * 1000)), ast.V("Y")} }
	type answer struct {
		tuples []Tuple
		stats  *Stats
	}
	var want [n][2]answer
	for i := range want {
		for d, db := range dbs {
			at := *p
			at.Goal = goal(i)
			tuples, stats, err := QueryCtx(context.Background(), &at, db, opts)
			if err != nil {
				t.Fatal(err)
			}
			want[i][d] = answer{tuples, stats}
		}
	}
	var got [n][runs]answer
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				at := goal(i)
				at[1] = ast.V(fmt.Sprintf("Y%d", r))
				res, stats, err := pq.Run(context.Background(), dbs[(i+r)%2], at, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if stats.MemoHit {
					t.Errorf("goroutine %d run %d: an answer-memo hit", i, r)
					return
				}
				got[i][r] = answer{res.Tuples(), stats}
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		for r, a := range got[i] {
			w := want[i][(i+r)%2]
			if !reflect.DeepEqual(a.tuples, w.tuples) || !a.stats.Equal(w.stats) {
				t.Fatalf("goroutine %d run %d: %v %+v, want %v %+v", i, r, a.tuples, a.stats, w.tuples, w.stats)
			}
		}
	}
}
