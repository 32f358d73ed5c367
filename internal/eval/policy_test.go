package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/refeval"
)

// --- policy differential harness ------------------------------------------
//
// What "bit-identical across policies" can honestly mean: JoinProbes is
// the quantity the policies exist to change, so full Stats equality
// across policies would only hold if the policies never did anything.
// The differential contract is therefore:
//
//   - answers are the reference evaluator's under every policy;
//   - every derived fact has a valid derivation tree under every policy
//     (runEngine builds and validates one per fact);
//   - the order-invariant Stats fields — Iterations, RuleFirings,
//     TuplesDerived, RoundDeltas — are identical across policies (a
//     join order permutes probes, never firings or derivations).

// statsOrderInvariantEqual compares the Stats fields a join order
// cannot change.
func statsOrderInvariantEqual(a, b *Stats) bool {
	inv := func(s *Stats) *Stats {
		return &Stats{Iterations: s.Iterations, RuleFirings: s.RuleFirings,
			TuplesDerived: s.TuplesDerived, RoundDeltas: s.RoundDeltas}
	}
	return inv(a).Equal(inv(b))
}

var allPolicies = []JoinOrderPolicy{PolicyGreedy, PolicyCost, PolicyAdaptive}

// refMaxFacts bounds the databases requirePoliciesIdentical hands to
// the reference evaluator, whose joins are nested loops over whole
// relations; larger workloads assert their (hand-computed) answers
// themselves.
const refMaxFacts = 5000

// requirePoliciesIdentical runs all three policies and asserts the
// contract above. It returns the per-policy runs so callers can
// additionally assert on answers, probe counts or adaptive counters.
func requirePoliciesIdentical(t *testing.T, label string, p *ast.Program, db *DB) map[JoinOrderPolicy]engineRun {
	t.Helper()
	out := map[JoinOrderPolicy]engineRun{}
	for _, pol := range allPolicies {
		out[pol] = runEngine(t, p, db, Options{Seminaive: true, Policy: pol})
		greedy := out[PolicyGreedy]
		if cr := out[pol]; !reflect.DeepEqual(cr.preds, greedy.preds) {
			t.Fatalf("%s: policy %s answers differ from greedy", label, pol)
		} else if !statsOrderInvariantEqual(&cr.stats, &greedy.stats) {
			t.Fatalf("%s: order-invariant stats differ:\ngreedy %+v\n%s %+v", label, greedy.stats, pol, cr.stats)
		}
	}
	if facts := dbFacts(db); len(facts) <= refMaxFacts {
		if want := refeval.Eval(p, facts); !reflect.DeepEqual(out[PolicyGreedy].preds, want) {
			t.Fatalf("%s: answers differ from the reference:\n%v\nvs\n%v", label, out[PolicyGreedy].preds, want)
		}
	}
	return out
}

// --- named workloads ------------------------------------------------------

func TestPolicyDifferentialTransClosure(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	requirePoliciesIdentical(t, "trans closure", p, chainEDB(40))
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
	requirePoliciesIdentical(t, "goodPath", p, db)
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
	requirePoliciesIdentical(t, "negation+cmp", p, db)
}

// filterSkewDB pins the workload where cost ordering should beat
// greedy outright: a large edge relation joined with a tiny tag
// filter. Greedy (no constants, tie-break by index) scans edge first;
// cost puts the 5-row tag relation first.
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

func TestPolicyCostBeatsGreedyOnFilterSkew(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- edge(X, Y), tag(Y).
		?- q.
	`)
	runs := requirePoliciesIdentical(t, "filter-skew", p, filterSkewDB(4000))
	g, c := runs[PolicyGreedy].stats.JoinProbes, runs[PolicyCost].stats.JoinProbes
	if c >= g {
		t.Fatalf("cost should probe less than greedy on filter-skew: cost=%d greedy=%d", c, g)
	}
}

// hotKeyDB builds the adaptive showcase: statistics that mislead the
// cost model. mid averages ~1.7 rows per X (15000 filler keys with one
// row each), but every X that src actually selects fans out to 200
// rows; alt always has exactly 2 rows per selected X. Cost orders
// [src, mid, alt] and pays 200 probes per src row; adaptive observes
// the 200x fan-out on the first src row, reorders the tail to
// [src, alt, mid], and pays ~4.
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

func TestPolicyAdaptiveReorderTriggers(t *testing.T) {
	p := parser.MustParseProgram(hotKeySrc)
	runs := requirePoliciesIdentical(t, "hot-key", p, hotKeyDB())
	// Too large for the reference evaluator; by construction mid(x, z)
	// and alt(x, z) meet exactly at z in {0, 1} for each of the 50 src
	// keys (the filler keys x >= 50 are not in src).
	var want []string
	for x := 0; x < 50; x++ {
		want = append(want, fmt.Sprintf("q(%d, 0)", x), fmt.Sprintf("q(%d, 1)", x))
	}
	sort.Strings(want)
	if got := runs[PolicyGreedy].preds["q"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("hot-key answers = %v, want %v", got, want)
	}
	ad := runs[PolicyAdaptive].stats
	if ad.AdaptiveReorders == 0 {
		t.Fatalf("adaptive never reordered on the hot-key workload: %+v", ad)
	}
	if c := runs[PolicyCost].stats.JoinProbes; ad.JoinProbes >= c {
		t.Fatalf("adaptive should probe less than cost after reordering: adaptive=%d cost=%d", ad.JoinProbes, c)
	}
}

func TestPolicyAdaptiveSkipsEmptySubgoal(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- e(X, Y), missing(Y).
		r(X) :- e(X, Y).
		?- r.
	`)
	db := NewDB()
	for i := 0; i < 20; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	runs := requirePoliciesIdentical(t, "empty subgoal", p, db)
	if runs[PolicyAdaptive].stats.AdaptiveSkips == 0 {
		t.Fatal("adaptive should skip tasks whose missing() subgoal is empty")
	}
}

// --- ablation coverage: naive rounds ---------------------------------------

func TestPolicyDifferentialAblations(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(25)
	want := refeval.Eval(p, dbFacts(db))["path"]
	for _, seminaive := range []bool{true, false} {
		for _, pol := range allPolicies {
			idb, _, err := EvalWith(p, db, Options{Seminaive: seminaive, Policy: pol})
			if err != nil {
				t.Fatalf("seminaive=%v policy=%s: %v", seminaive, pol, err)
			}
			if !reflect.DeepEqual(idb.SortedFacts("path"), want) {
				t.Fatalf("seminaive=%v policy=%s: answers differ from the reference", seminaive, pol)
			}
		}
	}
}

// --- randomized programs --------------------------------------------------

func TestPolicyDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	extras := []string{
		"q(X, Y) :- p(X, Y), f(Y, %c).\n",
		"q(X, Y) :- f(X, %c), p(X, Y).\n",
		"r(X) :- p(X, X).\n",
		"s(X, Y) :- p(X, Y), X < Y, !g(X).\n",
		"u(X) :- e(X, Y), f(Y, %c), Y > %c.\n",
		"v(X, Z) :- p(X, Y), p(Y, Z), X != Z.\n",
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
		for i := 0; i < n*3; i++ {
			db.AddFact(ast.NewAtom("e", ast.N(float64(rng.Intn(n))), ast.N(float64(rng.Intn(n)))))
			db.AddFact(ast.NewAtom("f", ast.N(float64(rng.Intn(n))), ast.N(float64(rng.Intn(5)))))
		}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				db.AddFact(ast.NewAtom("g", ast.N(float64(i))))
			}
		}
		requirePoliciesIdentical(t, fmt.Sprintf("random trial %d", trial), p, db)
	}
}

// --- options plumbing and unit tests --------------------------------------

func TestParseJoinOrderPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want JoinOrderPolicy
		ok   bool
	}{
		{"", PolicyGreedy, true},
		{"greedy", PolicyGreedy, true},
		{"cost", PolicyCost, true},
		{"adaptive", PolicyAdaptive, true},
		{"Greedy", "", false},
		{"optimal", "", false},
	} {
		got, err := ParseJoinOrderPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseJoinOrderPolicy(%q) = %q, %v", tc.in, got, err)
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	p := parser.MustParseProgram("q(X) :- e(X, X).\n?- q.\n")
	db := NewDB()
	if _, _, err := EvalWith(p, db, Options{Seminaive: true, Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy must error")
	}
	for _, pol := range append([]JoinOrderPolicy{""}, allPolicies...) {
		if _, _, err := EvalWith(p, db, Options{Seminaive: true, Policy: pol}); err != nil {
			t.Fatalf("policy=%q: %v", pol, err)
		}
	}
}

func TestCostJoinOrderUnit(t *testing.T) {
	r := parser.MustParseProgram(`
		q(X) :- big(X, Y), small(Y).
		?- q.
	`).Rules[0]
	est := func(si int) relEstimate {
		if si == 0 {
			return relEstimate{n: 1000, distinct: []int{500, 40}}
		}
		return relEstimate{n: 3, distinct: []int{3}}
	}
	order, ests := costJoinOrder(r, -1, est, nil)
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Fatalf("cost must scan the 3-row relation first: %v", order)
	}
	// Depth 1 probes big with Y bound: 1000/40 = 25 expected matches.
	if ests[0] != 3 || ests[1] != 25 {
		t.Fatalf("ests = %v, want [3 25]", ests)
	}
	// The delta occurrence stays pinned first even when it is larger.
	order, _ = costJoinOrder(r, 0, est, nil)
	if !reflect.DeepEqual(order, []int{0, 1}) {
		t.Fatalf("delta occurrence must stay first: %v", order)
	}
	// An empty relation orders before everything.
	estEmpty := func(si int) relEstimate {
		if si == 1 {
			return relEstimate{}
		}
		return est(si)
	}
	order, ests = costJoinOrder(r, -1, estEmpty, nil)
	if !reflect.DeepEqual(order, []int{1, 0}) || ests[0] != 0 {
		t.Fatalf("empty relation must order first with estimate 0: %v %v", order, ests)
	}
	// An override replaces the estimate for partially-bound probes.
	order, _ = costJoinOrder(r, -1, est, map[int]float64{0: 1e6})
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Fatalf("override order: %v", order)
	}
}
