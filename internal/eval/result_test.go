package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/parser"
)

// trickyConsts is a vocabulary chosen to break an order by constant rank
// if anything can: renderings that are prefixes of one another across
// every form Term.String has (bare identifier, FormatFloat 'g' in both
// notations, %q), bytes that sort around the separators ", " and ")" and
// around Tuple.Key's \x01, and strings that need each kind of escape.
func trickyConsts() []ast.Term {
	var out []ast.Term
	for _, v := range []float64{0, 1, 10, 100, 12, 1.5, 15, 1e21, 1e22, 1e-7, 1.5e-7, 1e100, 1e+210,
		-1, -10, -1.5, -1e21, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 123456789, 1234567890123456789012} {
		out = append(out, ast.N(v))
	}
	for _, s := range []string{"a", "ab", "a_b", "aB", "a1", "a10", "abc", "b", "", "A", "_a", "1", "10", "1e+21",
		"a b", "a,b", "a, b", "a)", "a(", ", ", ")", "a\"b", "a\"", `a\`, `a\b`, "<a>", "&", "a&b",
		"\x00", "\x01", "\x02", "a\x00", "a\x01", "a\x01b", "a\x02", "a\x1f", "a\n", "a\tb", "\b\f",
		"é", "aé", "日本", " ", "a b", "\xff", "a\xffb", "\xc3", "a\x7f", "+Inf", "NaN"} {
		out = append(out, ast.S(s))
	}
	return out
}

// resultOf evaluates q(X1..Xn) :- p(X1..Xn). over the given p tuples and
// returns the result for ?- q.
func resultOf(t testing.TB, arity int, tuples []Tuple) *Result {
	t.Helper()
	vars := make([]ast.Term, arity)
	for i := range vars {
		vars[i] = ast.V(fmt.Sprintf("X%d", i))
	}
	body := ast.NewAtom("p", vars...)
	if arity == 0 {
		body = ast.NewAtom("p", ast.V("X")) // q holds iff p has a tuple
	}
	prog := &ast.Program{Rules: []ast.Rule{{Head: ast.NewAtom("q", vars...), Pos: []ast.Atom{body}}}, Query: "q"}
	db := NewDB()
	rel := db.Rel("p", len(body.Args))
	for _, tp := range tuples {
		rel.Add(tp)
	}
	res, _, err := QueryResultCtx(context.Background(), prog, db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ordered collects Ordered's walk as Tuple.String renderings.
func ordered(res *Result, o Order) []string {
	out := []string{}
	res.Ordered(o, nil, func(cols [][]byte) bool {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = string(c)
		}
		out = append(out, "("+strings.Join(parts, ", ")+")")
		return true
	})
	return out
}

// byStringReference and byKeyReference are the orders Ordered replaces,
// the way the server and SortedTuples used to produce them.
func byStringReference(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

func byKeyReference(ts []Tuple) []string {
	ts = append([]Tuple(nil), ts...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Key() < ts[j].Key() })
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// TestRankOrderIsStringOrder is the test half of the argument in
// Result.order: over a vocabulary built to break it and arities 0-3, the
// walk by constant rank is sort.Strings over Tuple.String (ByString) and
// the sort by Tuple.Key (ByKey); under ByString the rank order is never
// declared unsafe (the proof: no rendering extends another with a byte
// at or below ','), under ByKey it is whenever a \x00 or \x01 follows a
// shared prefix, and the sort of the tuples' strings then gives the same
// answer the reference does. Mutations these references kill: ranking by
// Term.Key on the ByString walk (Key puts every number before every
// string; String has `"` below the digits and "-1" before "1"), a rank
// order trusted without the prefix check, and a string sort without its
// "\x01" separator (both misplace ("a\x01", x) against ("a", y) under
// ByKey). A string sort without the closing ")" is not killed and cannot
// be: the closer decides a comparison only where a rendering is extended
// by a byte below ")", which ByString never has — so it never runs.
func TestRankOrderIsStringOrder(t *testing.T) {
	vocab := trickyConsts()
	rng := rand.New(rand.NewSource(22))
	sawFallback := false
	for arity := 0; arity <= 3; arity++ {
		for _, n := range []int{0, 1, 2, 40, 400} {
			for round := 0; round < 6; round++ {
				var tuples []Tuple
				for i := 0; i < n; i++ {
					tp := make(Tuple, max(arity, 1))
					for j := range tp {
						// Half the rounds draw from a few constants, so equal
						// leading columns push the decision to later ones.
						pool := vocab
						if round%2 == 1 {
							pool = vocab[(round*7)%len(vocab):][:min(6, len(vocab)-(round*7)%len(vocab))]
						}
						tp[j] = pool[rng.Intn(len(pool))]
					}
					tuples = append(tuples, tp)
				}
				res := resultOf(t, arity, tuples)
				ts := res.Tuples()
				label := fmt.Sprintf("arity %d, %d tuples, round %d", arity, n, round)
				if got, want := ordered(res, ByString), byStringReference(ts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ByString walk differs from sort.Strings over Tuple.String\n got %q\nwant %q", label, got, want)
				}
				if got, want := ordered(res, ByKey), byKeyReference(ts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ByKey walk differs from the sort by Tuple.Key\n got %q\nwant %q", label, got, want)
				}
				if res.Len() == 0 {
					continue
				}
				if _, _, consts := res.order(ByString); !rankDecides(consts, ByString) {
					t.Fatalf("%s: ranks declared not to decide the order under ByString", label)
				}
				if _, _, consts := res.order(ByKey); !rankDecides(consts, ByKey) {
					sawFallback = true
				}
			}
		}
	}
	if !sawFallback {
		t.Fatal("no case drove ByKey to its byte-comparing fallback; the vocabulary lost its control bytes")
	}
}

// TestRankOrderAdjacentRenderings checks the rank argument where it is
// decided — between a rendering and its extensions — for every pair of
// the vocabulary, as 1- and 2-column tuples led by the pair.
func TestRankOrderAdjacentRenderings(t *testing.T) {
	vocab := trickyConsts()
	for _, a := range vocab {
		for _, b := range vocab {
			if a == b {
				continue
			}
			tuples := []Tuple{{a, b}, {b, a}, {a, a}, {b, b}}
			res := resultOf(t, 2, tuples)
			if got, want := ordered(res, ByString), byStringReference(tuples); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v, %v: got %q want %q", a, b, got, want)
			}
			if got, want := ordered(res, ByKey), byKeyReference(tuples); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v, %v by key: got %q want %q", a, b, got, want)
			}
		}
	}
}

// TestNumberStringIsKeyLessHash pins what Result.order relies on.
func TestNumberStringIsKeyLessHash(t *testing.T) {
	for _, c := range trickyConsts() {
		if c.Kind == ast.Num && c.Key()[1:] != c.String() {
			t.Fatalf("%v: Key %q is not \"#\" + String %q", c.Val, c.Key(), c.String())
		}
	}
}

// TestResultTuplesIsQueryCtx: QueryCtx is QueryResultCtx + Tuples, and
// Ordered stops when visit says so.
func TestResultTuplesIsQueryCtx(t *testing.T) {
	tuples := []Tuple{{ast.N(2), ast.S("b")}, {ast.N(1), ast.S("a")}, {ast.N(10), ast.S("c")}}
	res := resultOf(t, 2, tuples)
	if res.Len() != 3 || !reflect.DeepEqual(res.Tuples(), tuples) {
		t.Fatalf("Tuples() = %v (Len %d), want %v in insertion order", res.Tuples(), res.Len(), tuples)
	}
	calls := 0
	res.Ordered(ByString, nil, func([][]byte) bool { calls++; return calls < 2 })
	if calls != 2 {
		t.Fatalf("Ordered made %d visits after being told to stop at 2", calls)
	}
	// enc runs once per distinct constant, not once per occurrence.
	encs := 0
	same := resultOf(t, 2, []Tuple{{ast.N(1), ast.N(1)}, {ast.N(1), ast.N(2)}, {ast.N(2), ast.N(1)}})
	same.Ordered(ByString, func(dst []byte, s string) []byte { encs++; return append(dst, s...) }, func([][]byte) bool { return true })
	if encs != 2 {
		t.Fatalf("enc ran %d times over 2 distinct constants", encs)
	}
	// Nothing derived: nil tuples, no visit.
	empty := resultOf(t, 2, nil)
	if empty.Len() != 0 || len(empty.Tuples()) != 0 || len(ordered(empty, ByString)) != 0 {
		t.Fatalf("empty result: Len %d, Tuples %v", empty.Len(), empty.Tuples())
	}
	// A few answers out of a large vocabulary: constants are numbered
	// through a map, not a table the size of the interner.
	db := NewDB()
	for i := 0; i < 3000; i++ {
		db.AddFact(ast.NewAtom("p", ast.N(float64(i%100)), ast.N(float64(i))))
	}
	x, y := ast.V("X"), ast.V("Y")
	prog := &ast.Program{Rules: []ast.Rule{{Head: ast.NewAtom("q", x, y), Pos: []ast.Atom{ast.NewAtom("p", x, y)}}},
		Query: "q", Goal: []ast.Term{ast.N(5), y}}
	few, _, err := QueryResultCtx(context.Background(), prog, db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ordered(few, ByString), byStringReference(few.Tuples()); few.Len() != 30 || !reflect.DeepEqual(got, want) {
		t.Fatalf("goal query over 3,000 constants: %d answers %q, want 30 in order %q", few.Len(), got, want)
	}
}

// TestResultOutlivesItsEvaluation: once answers returns, the Result is
// all that keeps anything of the evaluation alive, and what it keeps is
// the query relation's row store and the interner — not the evaluator,
// not the query relation's dedup set and indexes (its irel), not another
// IDB relation. Each of those is given a finalizer, the evaluator is
// dropped, and all three must be collected while the Result is still in
// use.
func TestResultOutlivesItsEvaluation(t *testing.T) {
	prog := &ast.Program{Query: "path", Rules: []ast.Rule{
		{Head: ast.NewAtom("hop", ast.V("X"), ast.V("Y")), Pos: []ast.Atom{ast.NewAtom("edge", ast.V("X"), ast.V("Y"))}},
		{Head: ast.NewAtom("path", ast.V("X"), ast.V("Y")), Pos: []ast.Atom{ast.NewAtom("hop", ast.V("X"), ast.V("Y"))}},
		{Head: ast.NewAtom("path", ast.V("X"), ast.V("Y")), Pos: []ast.Atom{ast.NewAtom("path", ast.V("X"), ast.V("Z")), ast.NewAtom("hop", ast.V("Z"), ast.V("Y"))}},
	}}
	db := NewDB()
	for i := 0; i < 60; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	collected := make(chan string, 3)
	res := func() *Result {
		ev, err := evalCompiled(context.Background(), prog, db, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(ev, func(*cEvaluator) { collected <- "evaluator" })
		runtime.SetFinalizer(ev.idb[ev.lay.ids["path"]].irel, func(*irel) { collected <- "path's irel (dedup set, indexes)" })
		runtime.SetFinalizer(ev.idb[ev.lay.ids["hop"]].irel, func(*irel) { collected <- "hop" })
		return ev.answers("path", nil)
	}()
	want := byStringReference(res.Tuples())
	seen := map[string]bool{}
	for deadline := time.After(10 * time.Second); len(seen) < 3; {
		runtime.GC()
		select {
		case what := <-collected:
			seen[what] = true
		case <-deadline:
			t.Fatalf("still reachable through a held Result after the evaluation: collected only %v", seen)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if got := ordered(res, ByString); !reflect.DeepEqual(got, want) || len(got) != 61*60/2 {
		t.Fatalf("the held Result changed: %d answers, want %d", len(got), len(want))
	}
}

// TestDistinctVariableGoalReadsRows: a goal of distinct variables selects
// every row, so it answers what the bare predicate does, in the same
// order (it returns the relation's rows, not a copy:
// TestQueryResponseAllocationGuard's "evaluated" row); a repeated
// variable still filters, and a relation with no rows answers nil.
func TestDistinctVariableGoalReadsRows(t *testing.T) {
	ctx := context.Background()
	db := memoDB()
	db.AddFact(ast.NewAtom("e", ast.N(40), ast.N(40)))
	const tc = "path(X, Y) :- e(X, Y). path(X, Y) :- path(X, Z), e(Z, Y). none(X, Y) :- e(X, Y), X > 1000.\n"
	answers := func(goal string) []Tuple {
		res, _, err := QueryResultCtx(ctx, parser.MustParseProgram(tc+goal), db, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.Tuples()
	}
	whole := answers("?- path.")
	if got := answers("?- path(A, B)."); len(whole) == 0 || !reflect.DeepEqual(got, whole) {
		t.Fatalf("path(A, B): %v, want ?- path.'s %v", got, whole)
	}
	if got, want := answers("?- path(A, A)."), []Tuple{{ast.N(40), ast.N(40)}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("path(A, A): %v, want %v", got, want)
	}
	if got := answers("?- none(A, B)."); got != nil {
		t.Fatalf("none(A, B): %v, want nil", got)
	}
}
