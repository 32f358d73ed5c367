package eval

// Tests for the answer memo a base keeps for the prepared queries run
// over it (answerMemo): a hit is the evaluation it replays, and nothing
// that must evaluate — a new base, a smaller budget, a done context,
// provenance, streaming, a one-shot QueryCtx — reads or fills it.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// memoDB holds three edge chains, a second edge relation f, and the
// likes/trendy pair a bounded recursion reads.
func memoDB() *DB {
	db := NewDB()
	for c := 0; c < 3; c++ {
		for i := 0; i < 8; i++ {
			db.AddFact(ast.NewAtom("e", ast.N(float64(c*10+i)), ast.N(float64(c*10+i+1))))
		}
		db.AddFact(ast.NewAtom("f", ast.N(float64(c*10)), ast.N(float64(c*10+5))))
	}
	for i := 1; i <= 4; i++ {
		db.AddFact(ast.NewAtom("likes", ast.N(float64(i)), ast.N(float64(10*i))))
		if i%2 == 0 {
			db.AddFact(ast.NewAtom("trendy", ast.N(float64(i))))
		}
	}
	return db
}

// memoQueries are the four shapes a Prepared runs as: a magic point
// query, a bottom-up query, an elim-flattened query and a k-root union
// read from its roots. check says the shape is the one intended.
var memoQueries = []struct {
	name  string
	src   string
	opts  Options
	check func(*Prepared, *Stats) bool
}{
	{"magic point", `path(X, Y) :- e(X, Y).
		path(X, Y) :- path(X, Z), e(Z, Y).
		?- path(10, Y).`, Options{},
		func(_ *Prepared, st *Stats) bool { return st.MagicApplied }},
	{"bottom-up", `path(X, Y) :- e(X, Y).
		path(X, Y) :- path(X, Z), e(Z, Y).
		?- path(10, Y).`, Options{Magic: MagicOff},
		func(_ *Prepared, st *Stats) bool { return !st.MagicApplied && !st.ElimApplied }},
	{"elim", `buys(X, Y) :- likes(X, Y).
		buys(X, Y) :- trendy(X), buys(Z, Y).
		?- buys.`, Options{},
		func(_ *Prepared, st *Stats) bool { return st.ElimApplied && st.ElimChecked > 0 }},
	{"k-root union", `p(X, Y) :- q0(X, Y).
		p(X, Y) :- q1(X, Y).
		q0(X, Y) :- e(X, Y).
		q0(X, Y) :- e(X, Z), q0(Z, Y).
		q1(X, Y) :- f(X, Y).
		q1(X, Y) :- e(X, Z), q1(Z, Y).
		?- p.`, Options{},
		func(pq *Prepared, _ *Stats) bool { return pq.roots != nil }},
}

// TestAnswerMemoHitEqualsFresh: for each shape, the first run over a base
// compiles its plans and fills nothing, the second reuses them and fills
// the memo, and the third is a hit — the second's Result, the same
// answers in the same order as a fresh QueryCtx, Stats Equal with the same
// RoundDeltas and rewrite flags, and no plan compiled.
func TestAnswerMemoHitEqualsFresh(t *testing.T) {
	ctx := context.Background()
	for _, q := range memoQueries {
		p := parser.MustParseProgram(q.src)
		db := memoDB()
		want, ws, err := QueryCtx(ctx, p, db, q.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no answers to memoize", q.name)
		}
		pq, err := Prepare(p, q.opts)
		if err != nil {
			t.Fatal(err)
		}
		var results []*Result
		var stats []*Stats
		for i := 0; i < 3; i++ {
			res, st, err := pq.Run(ctx, db, p.Goal, q.opts)
			if err != nil {
				t.Fatal(err)
			}
			results, stats = append(results, res), append(stats, st)
		}
		if !q.check(pq, stats[0]) {
			t.Fatalf("%s: not the intended shape: %+v", q.name, stats[0])
		}
		if stats[0].MemoHit || stats[1].MemoHit || !stats[2].MemoHit {
			t.Fatalf("%s: hits %v %v %v, want only the third", q.name, stats[0].MemoHit, stats[1].MemoHit, stats[2].MemoHit)
		}
		if results[2] != results[1] {
			t.Fatalf("%s: a hit returned another Result than the run that filled the memo", q.name)
		}
		for i, st := range stats {
			label := fmt.Sprintf("%s run %d", q.name, i)
			if got := results[i].Tuples(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: answers %v, want %v", label, got, want)
			}
			if !st.Equal(ws) || !reflect.DeepEqual(st.RoundDeltas(), ws.RoundDeltas()) {
				t.Fatalf("%s: Stats %+v, want %+v", label, st, ws)
			}
			if st.MagicApplied != ws.MagicApplied || st.ElimApplied != ws.ElimApplied || st.ElimChecked != ws.ElimChecked {
				t.Fatalf("%s: rewrite flags %+v, want %+v", label, st, ws)
			}
		}
		if stats[2].PlansCompiled != 0 || stats[2].PlanNanos != 0 || stats[2].EDBRowsInterned != 0 {
			t.Fatalf("%s: a hit compiled or interned: %+v", q.name, stats[2])
		}
		// A goal the memo does not hold evaluates: its variables are part
		// of it, as p(X, X) and p(X, Y) are different questions.
		if len(p.Goal) == 2 {
			other := []ast.Term{p.Goal[0], ast.V("Z")}
			if _, st, err := pq.Run(ctx, db, other, q.opts); err != nil || st.MemoHit {
				t.Fatalf("%s: goal %v: hit=%v err=%v, want an evaluation", q.name, other, st != nil && st.MemoHit, err)
			}
		}
	}
}

// TestAnswerMemoSeesAddFacts: a fact added to the DB makes a new base, so
// the next run evaluates again and answers with the new fact.
func TestAnswerMemoSeesAddFacts(t *testing.T) {
	ctx := context.Background()
	p := parser.MustParseProgram(memoQueries[0].src)
	db := memoDB()
	pq, err := Prepare(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var before *Result
	for i := 0; i < 3; i++ {
		if before, _, err = pq.Run(ctx, db, p.Goal, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	db.AddFacts([]ast.Atom{ast.NewAtom("e", ast.N(18), ast.N(99))})
	res, st, err := pq.Run(ctx, db, p.Goal, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.MemoHit || res.Len() != before.Len()+1 {
		t.Fatalf("after AddFacts: hit=%v, %d answers, want an evaluation with %d", st.MemoHit, res.Len(), before.Len()+1)
	}
	want := Tuple{ast.N(10), ast.N(99)}
	found := false
	for _, tu := range res.Tuples() {
		found = found || reflect.DeepEqual(tu, want)
	}
	if !found {
		t.Fatalf("answers %v lack the new fact's %v", res.Tuples(), want)
	}
}

// TestAnswerMemoBudgetAndContext: a hit honours what the evaluation it
// replays would have — MaxTuples below the memoized TuplesDerived still
// fails with ErrBudget, at it still answers — and a done context returns
// its error.
func TestAnswerMemoBudgetAndContext(t *testing.T) {
	ctx := context.Background()
	p := parser.MustParseProgram(memoQueries[0].src)
	db := memoDB()
	pq, err := Prepare(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var st *Stats
	for i := 0; i < 2; i++ {
		if _, st, err = pq.Run(ctx, db, p.Goal, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := pq.Run(ctx, db, p.Goal, Options{MaxTuples: st.TuplesDerived - 1}); !errors.Is(err, ErrBudget) {
		t.Fatalf("MaxTuples %d below %d memoized: err %v, want ErrBudget", st.TuplesDerived-1, st.TuplesDerived, err)
	}
	if _, hit, err := pq.Run(ctx, db, p.Goal, Options{MaxTuples: st.TuplesDerived}); err != nil || !hit.MemoHit {
		t.Fatalf("MaxTuples at the memoized count: err %v, want a hit", err)
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := pq.Run(done, db, p.Goal, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("done context: err %v, want context.Canceled", err)
	}
}

// TestAnswerMemoBypassed: Options.Stream neither reads the memo nor
// fills it, and QueryCtx, whose Prepared runs once, leaves the base's
// memo empty.
func TestAnswerMemoBypassed(t *testing.T) {
	ctx := context.Background()
	p := parser.MustParseProgram(memoQueries[0].src)
	db := memoDB()
	for i := 0; i < 3; i++ {
		if _, _, err := QueryCtx(ctx, p, db, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if base, _ := db.interned(); len(base.answers.m) != 0 {
		t.Fatalf("QueryCtx filled the memo: %v", base.answers.m)
	}
	pq, err := Prepare(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stream := Options{Stream: true}
	run := func(label string, opts Options, wantHit bool) {
		t.Helper()
		_, st, err := pq.Run(ctx, db, p.Goal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.MemoHit != wantHit {
			t.Fatalf("%s: hit=%v, want %v", label, st.MemoHit, wantHit)
		}
	}
	run("first run", DefaultOptions(), false)
	run("stream", stream, false)
	run("after stream", DefaultOptions(), false)
	run("filled", DefaultOptions(), true)
	run("stream over a filled memo", stream, false)
}

// TestAnswerMemoBound: an entry is charged what it keeps — rows, an
// ordering, its round log, its key and a fixed part — against memoBytes;
// the entry that would cross the bound empties the memo first, and one
// larger than the bound is never kept. Filled by real one-answer runs
// whose Results each keep a rendering, the memo's charge covers the heap
// its entries hold once ordered and rendered, and a rendering that would
// cross the bound is not kept.
func TestAnswerMemoBound(t *testing.T) {
	var am answerMemo
	entry := func(n int) memoEntry {
		return memoEntry{&Result{arity: 2, n: n, data: make([]uint32, 2*n)}, &Stats{}}
	}
	per := entry(1).charge(1) - entry(0).charge(1) // bytes an answer adds
	half := (memoBytes/2 - entry(0).charge(1)) / per
	am.put([]byte("a"), entry(half))
	am.put([]byte("b"), entry(half))
	if _, ok := am.get([]byte("a")); !ok || am.charge.Load() != int64(2*entry(half).charge(1)) {
		t.Fatalf("bytes %d, want both entries' %d", am.charge.Load(), 2*entry(half).charge(1))
	}
	am.put([]byte("c"), entry(half))
	if _, ok := am.get([]byte("a")); ok || am.charge.Load() != int64(entry(half).charge(1)) {
		t.Fatalf("after crossing the bound: bytes %d, old entry kept %v", am.charge.Load(), ok)
	}
	am.put([]byte("d"), entry(memoBytes/per))
	if _, ok := am.get([]byte("d")); ok {
		t.Fatalf("an entry above the bound was kept (bytes %d)", am.charge.Load())
	}
	if a, b := appendGoalKey(nil, []ast.Term{ast.S("a$b"), ast.S("c")}), appendGoalKey(nil, []ast.Term{ast.S("a"), ast.S("b$c")}); string(a) == string(b) {
		t.Fatalf("two goals share the key %q", a)
	}

	// Many one-answer entries: node 2k has the one successor 2k+1, and a
	// long chain gives the magic fixpoint's round log some length.
	db := NewDB()
	const goals = 2000
	for k := 0; k < goals; k++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(2*k)), ast.N(float64(2*k+1))))
	}
	for i := 0; i < 50; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(1e6+i)), ast.N(float64(1e6+i+1))))
	}
	db.AddFact(ast.NewAtom("e", ast.N(-1), ast.N(-2))) // a goal run only at the end
	p := parser.MustParseProgram(memoQueries[0].src)
	pq, err := Prepare(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(c float64) *Result {
		res, _, err := pq.Run(ctx, db, []ast.Term{ast.N(c), ast.V("Y")}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var rendering []byte
		res.Ordered(ByString, nil, func(cols [][]byte) bool {
			rendering = append(rendering, "\n    \"("...)
			for j, c := range cols {
				if j > 0 {
					rendering = append(rendering, ", "...)
				}
				rendering = append(rendering, c...)
			}
			rendering = append(rendering, ")\""...)
			return true
		})
		if _, keepable := res.Rendered(ByString); keepable {
			res.Keep(ByString, rendering)
		}
		return res
	}
	run(1e6) // compiles the plans over the base; the next runs fill the memo
	run(1e6)
	base, _ := db.interned()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k < goals; k++ {
		if res := run(float64(2 * k)); res.Len() != 1 {
			t.Fatalf("goal %d: %d answers, want 1", 2*k, res.Len())
		}
	}
	for i := 1; i < 50; i++ { // up to 50 rounds and answers each
		run(float64(1e6 + i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(base.answers.m) != goals+50 {
		t.Fatalf("%d entries, want %d", len(base.answers.m), goals+50)
	}
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	first := base.answers.m[string(appendGoalKey(binary.LittleEndian.AppendUint64(nil, pq.id), []ast.Term{ast.N(1e6), ast.V("Y")}))]
	kept, _ := first.res.Rendered(ByString)
	charged := base.answers.charge.Load() - int64(first.charge(8+2*(len(ast.N(1e6).Key())+4))+cap(kept)+32)
	t.Logf("%d entries: %d bytes of heap, charged %d", goals+49, held, charged)
	if held > charged {
		t.Fatalf("%d entries hold %d bytes of heap, charged only %d", goals+49, held, charged)
	}
	for k := 0; k < goals; k += 500 {
		if kept, keepable := run(float64(2 * k)).Rendered(ByString); len(kept) == 0 || keepable {
			t.Fatalf("goal %d: a memo hit keeps no rendering (%q), or would keep another", 2*k, kept)
		}
	}

	// A Result the memo holds keeps nothing before it is ordered — a
	// writer's first pass — and then no rendering that would take the
	// charge past the bound; nor does one no memo holds.
	res, _, err := pq.Run(ctx, db, []ast.Term{ast.N(-1), ast.V("Y")}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if kept, keepable := res.Rendered(ByString); kept != nil || keepable {
		t.Fatalf("a Result never ordered keeps %q (keepable %v)", kept, keepable)
	}
	res.Ordered(ByString, nil, func([][]byte) bool { return true })
	before0 := base.answers.charge.Load()
	res.Keep(ByString, make([]byte, memoBytes-before0+1))
	if kept, keepable := res.Rendered(ByString); kept != nil || !keepable || base.answers.charge.Load() != before0 {
		t.Fatalf("a rendering past the bound: kept %d bytes (keepable %v), charge %d → %d", len(kept), keepable, before0, base.answers.charge.Load())
	}
	fresh, _, err := QueryResultCtx(ctx, p, db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fresh.Ordered(ByString, nil, func([][]byte) bool { return true })
	fresh.Keep(ByString, []byte("[]"))
	if kept, keepable := fresh.Rendered(ByString); kept != nil || keepable {
		t.Fatalf("a Result no memo holds kept %q (keepable %v)", kept, keepable)
	}
}

// TestAnswerMemoConcurrent: 8 goroutines run one Prepared over one
// snapshot at mixed goals — filling the memo, hitting it, and racing each
// other to fill one key — while another goroutine mutates a second DB and
// runs the same Prepared over it, swapping the kept plan slot between
// the two bases. Every answer equals a fresh QueryCtx's. Run under -race.
func TestAnswerMemoConcurrent(t *testing.T) {
	ctx := context.Background()
	p := parser.MustParseProgram(memoQueries[0].src)
	snap := memoDB()
	var goals [][]ast.Term
	want := map[string][]Tuple{}
	for _, c := range []float64{0, 3, 10, 14, 20, 27, 99} {
		goal := []ast.Term{ast.N(c), ast.V("Y")}
		at := *p
		at.Goal = goal
		tuples, _, err := QueryCtx(ctx, &at, snap, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		goals = append(goals, goal)
		want[fmt.Sprint(goal)] = tuples
	}
	pq, err := Prepare(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var hits sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				goal := goals[(g+i)%len(goals)]
				res, st, err := pq.Run(ctx, snap, goal, DefaultOptions())
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Tuples(); !reflect.DeepEqual(got, want[fmt.Sprint(goal)]) {
					t.Errorf("goal %v: %v, want %v", goal, got, want[fmt.Sprint(goal)])
					return
				}
				if st.MemoHit {
					hits.Store(fmt.Sprint(goal), true)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		other := memoDB()
		for i := 0; i < 20; i++ {
			other.AddFact(ast.NewAtom("e", ast.N(float64(8+i)), ast.N(float64(9+i))))
			at := *p
			at.Goal = []ast.Term{ast.N(0), ast.V("Y")}
			fresh, _, err := QueryCtx(ctx, &at, other, DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			res, _, err := pq.Run(ctx, other, at.Goal, DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			if got := res.Tuples(); !reflect.DeepEqual(got, fresh) {
				t.Errorf("mutated DB step %d: %v, want %v", i, got, fresh)
				return
			}
		}
	}()
	wg.Wait()
	n := 0
	hits.Range(func(any, any) bool { n++; return true })
	if n == 0 {
		t.Fatal("no run hit the memo")
	}
}
