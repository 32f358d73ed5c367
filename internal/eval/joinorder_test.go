package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// The engine has one join order: greedy on bound positions with ties
// between EDB subgoals broken by exact relation length (plan.go), tasks
// with an empty positive subgoal skipped (join.go), and at most one
// mid-task reorder from exact fan-outs (compiled.go). An order may change
// the probes a fixpoint makes and the order a task derives its heads in,
// never what is derived. The differentials hold it to internal/refeval
// (every derivation tree validated); the workload
// shapes each part exists for are pinned at exact probe counts.

// --- differentials ----------------------------------------------------------

func TestPolicyDifferentialTransClosure(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	requireReference(t, "trans closure", p, chainEDB(40))
}

func TestPolicyDifferentialGoodPath(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	db := chainEDB(30)
	db.AddFact(ast.NewAtom("startPoint", ast.N(3)))
	db.AddFact(ast.NewAtom("endPoint", ast.N(20)))
	requireReference(t, "goodPath", p, db)
}

func TestPolicyDifferentialNegationCmp(t *testing.T) {
	p := parser.MustParseProgram(`
		reach(X, Y) :- edge(X, Y), !blocked(X).
		reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
		far(X, Y) :- reach(X, Y), X < Y.
		sym(X, Y) :- reach(X, Y), reach(Y, X), X != Y.
		?- far.
	`)
	db := NewDB()
	for i := 0; i < 12; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i+1)%12))))
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i*5)%12))))
	}
	db.AddFact(ast.NewAtom("blocked", ast.N(7)))
	requireReference(t, "negation+cmp", p, db)
}

// TestPolicyDifferentialAblations: the left-linear closure, whose
// recursive subgoal comes first in rule order.
func TestPolicyDifferentialAblations(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- path(X, Z), step(Z, Y).
		?- path.
	`)
	requireReference(t, "left-linear closure", p, chainEDB(25))
}

// TestPolicyDifferentialRandomPrograms: random rule subsets over random
// databases whose relation lengths differ from trial to trial, so the
// length tie-break orders the same rule both ways across the trials.
func TestPolicyDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	extras := []string{
		"q(X, Y) :- p(X, Y), f(Y, %c).\n",
		"q(X, Y) :- f(X, %c), p(X, Y).\n",
		"r(X) :- p(X, X).\n",
		"s(X, Y) :- p(X, Y), X < Y, !g(X).\n",
		"u(X) :- e(X, Y), f(Y, %c), Y > %c.\n",
		"v(X, Z) :- p(X, Y), p(Y, Z), X != Z.\n",
		"w(X) :- e(X, Y), f(Y, Z), g(Z).\n",
	}
	for trial := 0; trial < 10; trial++ {
		src := "p(X, Y) :- e(X, Y).\np(X, Z) :- e(X, Y), p(Y, Z).\n"
		for _, ex := range extras {
			if rng.Intn(2) == 0 {
				continue
			}
			for {
				i := strings.IndexByte(ex, '%')
				if i < 0 {
					break
				}
				ex = ex[:i] + fmt.Sprintf("%d", rng.Intn(5)) + ex[i+2:]
			}
			src += ex
		}
		src += "?- p.\n"
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		db := NewDB()
		n := 4 + rng.Intn(5)
		for i := 0; i < n*(1+rng.Intn(4)); i++ {
			db.AddFact(ast.NewAtom("e", ast.N(float64(rng.Intn(n))), ast.N(float64(rng.Intn(n)))))
		}
		for i := 0; i < n*(1+rng.Intn(4)); i++ {
			db.AddFact(ast.NewAtom("f", ast.N(float64(rng.Intn(n))), ast.N(float64(rng.Intn(5)))))
		}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				db.AddFact(ast.NewAtom("g", ast.N(float64(i))))
			}
		}
		requireReference(t, fmt.Sprintf("random trial %d\n%s", trial, src), p, db)
	}
}

// --- the shapes each part is for ----------------------------------------------

// filterSkewDB is a large edge relation joined with a tiny tag filter:
// no subgoal has a bound position, so only the lengths can tell the 5-row
// tag relation to go first.
func filterSkewDB(edges int) *DB {
	db := NewDB()
	for i := 0; i < edges; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i%97))))
	}
	for i := 0; i < 5; i++ {
		db.AddFact(ast.NewAtom("tag", ast.N(float64(i))))
	}
	return db
}

// TestJoinOrderFilterSkew: the length tie-break scans tag and probes edge
// on Y — 5 scanned rows and the 210 edges whose Y is a tag — where rule
// order scans all 4,000 edges and probes tag for each. The rule-order
// figure comes from a DeltaProgram before OrderJoins, which knows no
// lengths yet; after it, the same pass makes the engine's probes.
func TestJoinOrderFilterSkew(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- edge(X, Y), tag(Y).
		?- q.
	`)
	db := filterSkewDB(4000)
	run := requireReference(t, "filter-skew", p, db)
	if got := run.stats.JoinProbes; got != 215 {
		t.Errorf("engine: %d probes, want 215", got)
	}

	dp, err := CompileDeltaProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]*IRel{}
	for _, pred := range db.Preds() {
		rel := dp.NewIRel(db.Lookup(pred).Arity)
		for _, tup := range db.Lookup(pred).Tuples() {
			row, err := dp.InternFact(pred, tup, nil)
			if err != nil {
				t.Fatal(err)
			}
			rel.Add(row)
		}
		rels[pred] = rel
	}
	pass := func() int64 {
		firings := 0
		probes, err := dp.RunDelta(context.Background(), 0, -1, []RelView{rels["edge"].View(), rels["tag"].View()}, nil,
			func([]uint32) error { firings++; return nil })
		if err != nil || firings != 210 {
			t.Fatalf("pass: %d firings, %v; want 210", firings, err)
		}
		return probes
	}
	if got := pass(); got != 4210 {
		t.Errorf("rule order: %d probes, want 4210", got)
	}
	dp.OrderJoins(func(pred string) int { return rels[pred].Len() })
	if got := pass(); got != 215 {
		t.Errorf("after OrderJoins: %d probes, want 215", got)
	}
}

// hotKeyDB builds the workload the mid-task reorder is for: mid averages
// ~1.7 rows per X (15,000 filler keys with one row each), but every X
// that src selects fans out to 200 rows; alt has exactly 2 rows per
// selected X. The lengths order [src, mid, alt] (mid is the shorter of
// the two tied on X) and the first src row pays 200 probes of mid; the
// reorder sees 200 against the exact 1.66 and runs the other 49 keys as
// [src, alt, mid], 4 probes each.
func hotKeyDB() *DB {
	db := NewDB()
	for x := 0; x < 50; x++ {
		db.AddFact(ast.NewAtom("src", ast.N(float64(x))))
		for z := 0; z < 200; z++ {
			db.AddFact(ast.NewAtom("mid", ast.N(float64(x)), ast.N(float64(z))))
		}
		db.AddFact(ast.NewAtom("alt", ast.N(float64(x)), ast.N(0)))
		db.AddFact(ast.NewAtom("alt", ast.N(float64(x)), ast.N(1)))
	}
	for x := 50; x < 15050; x++ {
		db.AddFact(ast.NewAtom("mid", ast.N(float64(x)), ast.N(float64(x))))
		db.AddFact(ast.NewAtom("alt", ast.N(float64(x)), ast.N(float64(x))))
		db.AddFact(ast.NewAtom("alt", ast.N(float64(x)), ast.N(float64(x+1))))
	}
	return db
}

const hotKeySrc = `
	q(X, Z) :- src(X), mid(X, Z), alt(X, Z).
	?- q.
`

func TestJoinOrderHotKeyReorders(t *testing.T) {
	p := parser.MustParseProgram(hotKeySrc)
	r := runEngine(t, p, hotKeyDB(), Options{})
	// Too large for the reference evaluator; by construction mid(x, z)
	// and alt(x, z) meet exactly at z in {0, 1} for each of the 50 src
	// keys (the filler keys x >= 50 are not in src).
	var want []string
	for x := 0; x < 50; x++ {
		want = append(want, fmt.Sprintf("q(%d, 0)", x), fmt.Sprintf("q(%d, 1)", x))
	}
	sort.Strings(want)
	if got := r.preds["q"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("hot-key answers = %v, want %v", got, want)
	}
	if got, want := pinStats(&r.stats), (pinnedStats{2, 100, 100, 448, "q:100 "}); got != want {
		t.Errorf("counters moved:\ngot  %+v\nwant %+v", got, want)
	}
	if r.stats.AdaptiveReorders != 1 || r.stats.PlansCompiled != 2 {
		t.Errorf("%d reorders, %d plans compiled; want 1 and 2", r.stats.AdaptiveReorders, r.stats.PlansCompiled)
	}
}

// TestJoinOrderSkipsEmptySubgoal: q and s read p, which stays empty, so
// every task of theirs costs nothing — not, for s's task on r's delta,
// the 20 rows of the window and the 20 probes of e(X, Y) ahead of p (an
// empty EDB relation needs no skip: its length puts it first) — and the
// same check stops a delta pass and a derivability check before they
// probe.
func TestJoinOrderSkipsEmptySubgoal(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- e(X, Y), p(Y).
		p(Y) :- missing(Y).
		r(X) :- e(X, Y).
		s(X) :- r(X), e(X, Y), p(Y).
		?- r.
	`)
	db := NewDB()
	for i := 0; i < 20; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	if got := requireReference(t, "empty subgoal", p, db).stats.JoinProbes; got != 20 {
		t.Errorf("%d probes, want 20 (r's scan of e alone)", got)
	}

	dp, err := CompileDeltaProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	e, empty := dp.NewIRel(2), dp.NewIRel(1)
	for _, tup := range db.Lookup("e").Tuples() {
		row, _ := dp.InternFact("e", tup, nil)
		e.Add(row)
	}
	subs := []RelView{e.View(), empty.View()}
	probes, err := dp.RunDelta(context.Background(), 0, 0, subs, nil, func([]uint32) error {
		t.Fatal("q fired over an empty p")
		return nil
	})
	if err != nil || probes != 0 {
		t.Errorf("RunDelta: %d probes, %v; want 0", probes, err)
	}
	head, _ := dp.InternFact("q", []ast.Term{ast.N(1)}, nil)
	if ok, probes, err := dp.Derivable(context.Background(), 0, head, subs, nil); ok || probes != 0 || err != nil {
		t.Errorf("Derivable: %v, %d probes, %v; want false, 0", ok, probes, err)
	}
}

// TestTailOrderUnit pins the numbers a mid-task reorder orders by: exact
// fan-outs read off the relations' indexes, and observations standing in
// for them where a probe is partly bound.
func TestTailOrderUnit(t *testing.T) {
	big, small := newIrel(2, 0), newIrel(1, 0)
	for i := uint32(0); i < 1000; i++ {
		big.add([]uint32{i % 500, i % 40})
	}
	for i := uint32(0); i < 3; i++ {
		small.add([]uint32{i})
	}
	bigV, smallV := big.whole(), small.whole()
	for _, c := range []struct {
		v    RelView
		pos  []int
		want float64
	}{
		{bigV, nil, 1000},
		{bigV, []int{1}, 25}, // 1,000 rows over 40 keys
		{bigV, []int{0}, 2},
		{bigV, []int{0, 1}, 1},
		{smallV, []int{0}, 1},
		// A prefix reads only its own keys: rows [0, 100) hold 100
		// values of column 0 and 40 of column 1.
		{RelView{Rel: (*IRel)(big), Hi: 100, live: 100}, []int{0}, 1},
		{RelView{Rel: (*IRel)(big), Hi: 100, live: 100}, []int{1}, 2.5},
	} {
		if got := fanout(c.v, c.pos); got != c.want {
			t.Errorf("fanout(Hi=%d, pos %v) = %v, want %v", c.v.Hi, c.pos, got, c.want)
		}
	}

	r := parser.MustParseProgram(`
		q(X) :- big(X, Y), small(Y), mid(X, Z).
		?- q.
	`).Rules[0]
	mid := newIrel(2, 0)
	for i := uint32(0); i < 1000; i++ {
		mid.add([]uint32{i, i}) // one row per X
	}
	views := []RelView{bigV, smallV, mid.whole()}
	// From big: small(Y) is a membership check (1) and mid(X, Z) one row
	// a key (1); the tie goes to the lower index.
	if got := tailOrder(r, 0, views, nil); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("tail order %v, want [0 1 2]", got)
	}
	// An observation on a fully bound probe changes nothing: a membership
	// check matches at most one row, whatever was observed.
	if got := tailOrder(r, 0, views, map[int]float64{1: 50}); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("tail order %v, want [0 1 2]", got)
	}
	// From small: big on Y (25) before the unbound mid (1,000) — until big
	// is observed at 5,000 a key.
	if got := tailOrder(r, 1, views, nil); !reflect.DeepEqual(got, []int{1, 0, 2}) {
		t.Errorf("tail order from small %v, want [1 0 2]", got)
	}
	if got := tailOrder(r, 1, views, map[int]float64{0: 5000}); !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Errorf("tail order with big observed at 5,000 a key %v, want [1 2 0]", got)
	}
}

// TestFanoutReadsShareBase: the EDB base is shared by every evaluation of
// a DB, and a reorder reads its key counts through indexes that the
// first reader builds. Eight hot-key evaluations racing to be that first
// reader must agree with one evaluation over a fresh clone on
// everything, the reorder included (run under -race in CI).
func TestFanoutReadsShareBase(t *testing.T) {
	p := parser.MustParseProgram(hotKeySrc)
	db := hotKeyDB()
	// Build the base without any of the indexes q reads.
	if _, _, err := Eval(parser.MustParseProgram(`z(X) :- src(X). ?- z.`), db); err != nil {
		t.Fatal(err)
	}
	_, want, err := EvalCtx(context.Background(), p, db.Clone(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]*Stats, 8)
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s, err := EvalCtx(context.Background(), p, db, DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			stats[i] = s
		}(i)
	}
	wg.Wait()
	for i, s := range stats {
		if s == nil || !s.Equal(want) || s.PlansCompiled != want.PlansCompiled || s.AdaptiveReorders != 1 {
			t.Fatalf("goroutine %d: stats differ from a single evaluation over a fresh clone:\n%+v\nvs\n%+v", i, s, want)
		}
	}
}
