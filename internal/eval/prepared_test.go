package eval

// Tests for what a Prepared query keeps between runs: the plans compiled
// over the last base it ran on (planSlot), reused by every run over that
// base and replaced by the first run over another.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/parser"
)

// provText renders every recorded derivation step, sorted by fact.
func provText(pv *Provenance) string {
	keys := make([]string, 0, len(pv.steps))
	for k := range pv.steps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%q <- %s\n", k, pv.steps[k].rule)
	}
	return b.String()
}

// reusedQuery is one Prepared of TestPreparedPlanReuseDifferential, run
// along the walk at the goals of each step.
type reusedQuery struct {
	name  string
	prog  *ast.Program
	pq    *Prepared
	base  *edbBase // of its last run
	goals func(w *derivedWalk) [][]ast.Term
}

// TestPreparedPlanReuseDifferential runs each of a few Prepared queries
// along seeded random DB.Replace walks (TestDerivedBaseDifferential's
// generator) and compares every run with a fresh QueryCtx at the same
// goal — answers in their order, Stats, RoundDeltas — and with an
// evaluation of the program magic.Result.Bind builds for the goal, every
// plan compiled for it alone: its answers filtered by the goal, Stats,
// RoundDeltas and provenance. Goals include constants the EDB lacks; one
// program has rule constants the EDB never holds, one a join-order tie
// the walk's lengths keep flipping, one a mid-task reorder. The first run
// over a base must compile every plan, as the fresh query does, and every
// later run over it only its magic seed's (and a reorder's).
//
// It kills these mutations of the slot: keeping the plans across a base
// whose EDB lengths flip a tie (the tie program's probes), storing a
// reordered plan into the slot (the hot-key program's next run starts in
// the reordered order), and giving a rule constant the base lacks an id
// in the run's overlay, which the next run gives to a goal constant.
func TestPreparedPlanReuseDifferential(t *testing.T) {
	point := pointProgram(ast.N(1))
	queries := []*reusedQuery{
		{name: "point", prog: point, goals: func(w *derivedWalk) [][]ast.Term {
			return [][]ast.Term{
				{ast.N(1), ast.V("Y")},
				{w.last, ast.V("Y")},
				{ast.S("nowhere"), ast.V("Y")},
				{ast.N(float64(1 + w.rng.Intn(30))), ast.V("Y")},
			}
		}},
		{name: "rule constants", prog: parser.MustParseProgram(`
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- path(X, Z), edge(Z, Y).
			tag(X, Y, near) :- path(X, Y), Y < 500.
			tag(X, Y, far) :- path(X, Y), Y >= 500, !mark(Y).
			?- tag(1, Y, T).`), goals: func(w *derivedWalk) [][]ast.Term {
			return [][]ast.Term{
				{ast.S("gone"), ast.V("Y"), ast.V("T")},
				{ast.N(1), ast.V("Y"), ast.V("T")},
				{w.last, ast.V("Y"), ast.V("T")},
				{ast.N(float64(1 + w.rng.Intn(30))), ast.V("Y"), ast.V("T")},
			}
		}},
		{name: "tie", prog: parser.MustParseProgram(`
			both(X) :- a(X), b(X).
			?- both.`), goals: func(*derivedWalk) [][]ast.Term { return [][]ast.Term{nil, nil} }},
		{name: "hot key", prog: parser.MustParseProgram(hotKeySrc), goals: func(*derivedWalk) [][]ast.Term { return [][]ast.Term{nil, nil} }},
	}
	ctx := context.Background()
	opts := DefaultOptions()
	hot := hotKeyDB()
	seen := map[string]int{}
	for seed := int64(1); seed <= 3; seed++ {
		w := &derivedWalk{rng: rand.New(rand.NewSource(seed)), last: ast.N(1)}
		var edges, labels, as, bs []Tuple
		for i := 1; i <= 24; i++ {
			edges = append(edges, Tuple{ast.N(float64(i)), ast.N(float64(i + 1 + i%3))})
			if i%4 == 0 {
				labels = append(labels, Tuple{ast.N(float64(i)), ast.S(fmt.Sprintf("n%d", i%5))})
			}
		}
		for i := 1; i <= 5; i++ {
			as = append(as, Tuple{ast.N(float64(i))})
			bs = append(bs, Tuple{ast.N(float64(2 * i))})
		}
		db := hot.Replace("edge", edges).Replace("label", labels).Replace("a", as).Replace("b", bs)
		for _, q := range queries {
			pq, err := Prepare(q.prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			q.pq, q.base = pq, nil
		}
		for step := 0; step < 30; step++ {
			for _, r := range []struct {
				pred  string
				arity int
			}{{"edge", 2}, {"label", 2}, {"mark", 1}, {"a", 1}, {"b", 1}} {
				if w.rng.Intn(2) == 0 {
					db = w.edit(db, r.pred, r.arity)
				}
			}
			if la, lb := db.Count("a"), db.Count("b"); la < lb {
				seen["a shorter"]++
			} else if lb < la {
				seen["b shorter"]++
			}
			for _, q := range queries {
				for gi, goal := range q.goals(w) {
					label := fmt.Sprintf("seed %d step %d %s goal %d %v", seed, step, q.name, gi, goal)
					at := *q.prog
					if goal != nil {
						at.Goal = goal
					}
					prov := &Provenance{steps: map[string]provStep{}}
					res, got, err := q.pq.run(ctx, db, at.Goal, opts, prov)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, ws, err := QueryCtx(ctx, &at, db, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(res.Tuples(), want) || !got.Equal(ws) ||
						!reflect.DeepEqual(got.RoundDeltas(), ws.RoundDeltas()) {
						t.Fatalf("%s: reused plans differ from a fresh query:\n%v %+v\n%v %+v", label, res.Tuples(), got, want, ws)
					}
					// QueryCtx runs the slot's code too; the bound program,
					// every plan compiled for this one evaluation, does not.
					bound := q.pq.prog
					if q.pq.magic != nil {
						bound = q.pq.magic.Bind(at.Goal)
					}
					boundProv := &Provenance{steps: map[string]provStep{}}
					ev, err := evalCompiled(ctx, bound, db, opts, boundProv)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if bt := ev.answers(q.pq.prog.Query, at.Goal).Tuples(); !reflect.DeepEqual(res.Tuples(), bt) ||
						!got.Equal(ev.stats) || !reflect.DeepEqual(got.RoundDeltas(), ev.stats.RoundDeltas()) {
						t.Fatalf("%s: reused plans differ from the bound program:\n%v %+v\n%v %+v", label, res.Tuples(), got, bt, ev.stats)
					}
					if a, b := provText(prov), provText(boundProv); a != b {
						t.Fatalf("%s: provenance differs:\n%s\nbound program:\n%s", label, a, b)
					}
					seedPlans := int64(0)
					if got.MagicApplied {
						seedPlans = 1
					}
					if first := db.base != q.base; first {
						if got.PlansCompiled != ws.PlansCompiled || got.PlansCompiled != ev.stats.PlansCompiled {
							t.Fatalf("%s: first run over a base compiled %d plans, a fresh query %d, the bound program %d",
								label, got.PlansCompiled, ws.PlansCompiled, ev.stats.PlansCompiled)
						}
						seen["first run"]++
					} else if n := got.PlansCompiled - got.AdaptiveReorders; n != seedPlans {
						t.Fatalf("%s: a run over the slot's base compiled %d plans besides reorders, want %d", label, n, seedPlans)
					} else {
						seen["reused"]++
					}
					q.base = db.base
					if got.AdaptiveReorders > 0 {
						seen["reorder"]++
					}
					if len(want) > 0 && goal != nil {
						seen[q.name+" answered"]++
					}
				}
			}
		}
	}
	for _, c := range []string{"a shorter", "b shorter", "first run", "reused", "reorder", "point answered", "rule constants answered"} {
		if seen[c] == 0 {
			t.Errorf("no walk reached the case %q: %v", c, seen)
		}
	}
}

// TestPreparedPinsNoBase holds a Prepared's kept plans to keeping nothing
// of the database they were compiled over, as sqod's rewrite cache keeps
// Prepareds beyond the datasets they ran on: several Prepareds — a magic
// point query, a program with rule constants no database holds, a
// bottom-up query — run over a dataset replaced again and again, and once
// every database is dropped, each base's interner and each edge
// relation's rows are collected while the Prepareds live on.
func TestPreparedPinsNoBase(t *testing.T) {
	var pqs []*Prepared
	for _, src := range []string{
		`path(X, Y) :- edge(X, Y). path(X, Y) :- path(X, Z), edge(Z, Y). ?- path(1, Y).`,
		`path(X, Y) :- edge(X, Y). path(X, Y) :- path(X, Z), edge(Z, Y).
		 tag(X, Y, near) :- path(X, Y), Y < 30. tag(X, Y, far) :- path(X, Y), Y >= 30.
		 ?- tag(1, Y, T).`,
		`hop(X, Z) :- edge(X, Y), edge(Y, Z). ?- hop.`,
	} {
		pq, err := Prepare(parser.MustParseProgram(src), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pqs = append(pqs, pq)
	}
	var collected atomic.Int64
	const replaces = 4
	runOverReplacedDataset(t, pqs, replaces, &collected)
	want := int64(2 * (replaces + 1))
	for i := 0; i < 50 && collected.Load() < want; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Fatalf("%d of %d base interners and edge rows collected: a kept plan slot pins its base", got, want)
	}
	runtime.KeepAlive(pqs)
}

// runOverReplacedDataset runs every pq twice over a dataset and over each
// of its successors, each with a new constant, watching every base's
// interner and edge rows for collection.
func runOverReplacedDataset(t *testing.T, pqs []*Prepared, replaces int, collected *atomic.Int64) {
	var edges []Tuple
	for i := 1; i < 40; i++ {
		edges = append(edges, Tuple{ast.N(float64(i)), ast.N(float64(i + 1))})
	}
	db := NewDB().Replace("edge", edges)
	for k := 0; k <= replaces; k++ {
		if k > 0 {
			edges = append(slices.Clip(edges), Tuple{ast.N(float64(40 + k)), ast.N(1000 + float64(k))})
			db = db.Replace("edge", edges)
		}
		for _, pq := range pqs {
			for range 2 {
				if _, _, err := pq.Run(context.Background(), db, pq.prog.Goal, DefaultOptions()); err != nil {
					t.Fatal(err)
				}
			}
		}
		base, _ := db.interned()
		runtime.SetFinalizer(base.in, func(*interner) { collected.Add(1) })
		runtime.SetFinalizer(&base.rels["edge"].data[0], func(*uint32) { collected.Add(1) })
	}
}

// BenchmarkPreparedRun is the fixed cost of a point query without HTTP,
// parsing or the optimizer: a left-linear closure over 40 chains of 50
// edges, prepared once and run at the head of a chain (50 answers) over
// one base, so every run after the first reuses its plans. ns/round
// spreads each run over the fixpoint's rounds — what a round costs when
// it derives a tuple or two.
func BenchmarkPreparedRun(b *testing.B) {
	db := NewDB()
	for c := 0; c < 40; c++ {
		for i := 0; i < 50; i++ {
			db.AddFact(ast.NewAtom("edge", ast.N(float64(c*100+i)), ast.N(float64(c*100+i+1))))
		}
	}
	p := pointProgram(ast.N(0))
	pq, err := Prepare(p, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	rounds := 0
	run := func() {
		res, stats, err := pq.Run(ctx, db, p.Goal, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 50 {
			b.Fatalf("%d answers, want 50", res.Len())
		}
		rounds += stats.Iterations
	}
	run() // the base and the plans
	rounds = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
}
