package eval

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/refeval"
	"repro/internal/unify"
)

// --- differential harness -------------------------------------------------

// engineRun captures everything observable from one evaluation:
// relations (as sorted fact strings per predicate), Stats, and the
// rendered derivation tree of every derived fact.
type engineRun struct {
	preds map[string][]string
	stats Stats
	prov  string
}

// runEngine evaluates with provenance and validates the derivation tree
// of every derived fact (checkDerivation) while rendering it.
func runEngine(t *testing.T, p *ast.Program, db *DB, opts Options) engineRun {
	t.Helper()
	idb, prov, stats, err := evalProvOpts(context.Background(), p, db, opts)
	if err != nil {
		t.Fatalf("opts %+v: %v", opts, err)
	}
	out := engineRun{preds: map[string][]string{}, stats: *stats}
	var provText strings.Builder
	idbPreds := p.IDB()
	checked := map[string]bool{}
	for _, pred := range idb.Preds() {
		out.preds[pred] = idb.SortedFacts(pred)
		for _, f := range idb.Facts(pred) {
			d, err := prov.Tree(f, idbPreds, db)
			if err != nil {
				t.Fatalf("opts %+v: no derivation for %s: %v", opts, f, err)
			}
			if err := checkDerivation(p, idbPreds, db, idb, d, checked); err != nil {
				t.Fatalf("opts %+v: derivation of %s: %v\n%s", opts, f, err, d)
			}
			provText.WriteString(d.String())
		}
	}
	out.prov = provText.String()
	return out
}

// checkDerivation validates a derivation tree against the program and
// the database alone, with no second engine to compare with: every
// inner node's fact is in the IDB and is the head of its recorded rule,
// the rule is a ground instance of a program rule whose order atoms hold
// and whose negated atoms are absent from the EDB, and its positive body
// is exactly the children's facts; every leaf is an EDB fact. checked
// holds the facts whose nodes were validated already: a fact's subtree
// is a function of the fact (one recorded step each), so it is walked
// once per evaluation, not once per tree it occurs in.
func checkDerivation(p *ast.Program, idbPreds map[string]bool, edb, idb *DB, d *Derivation, checked map[string]bool) error {
	if d.Rule == nil {
		if idbPreds[d.Fact.Pred] || !edb.Contains(d.Fact) {
			return fmt.Errorf("leaf %s is not an EDB fact", d.Fact)
		}
		return nil
	}
	if checked[d.Fact.Key()] {
		return nil
	}
	checked[d.Fact.Key()] = true
	inst := *d.Rule
	if !idb.Contains(d.Fact) || !inst.Head.Equal(d.Fact) {
		return fmt.Errorf("node %s: not derived, or not the head of %s", d.Fact, inst)
	}
	if len(inst.Pos) != len(d.Children) {
		return fmt.Errorf("node %s: %d positive subgoals, %d children", d.Fact, len(inst.Pos), len(d.Children))
	}
	for i, c := range d.Children {
		if !inst.Pos[i].Equal(c.Fact) {
			return fmt.Errorf("node %s: subgoal %s has child %s", d.Fact, inst.Pos[i], c.Fact)
		}
		if err := checkDerivation(p, idbPreds, edb, idb, c, checked); err != nil {
			return err
		}
	}
	for _, n := range inst.Neg {
		if edb.Contains(n) {
			return fmt.Errorf("node %s: negated atom %s is in the EDB", d.Fact, n)
		}
	}
	for _, r := range p.Rules {
		if instanceOf(r, inst) {
			return nil
		}
	}
	return fmt.Errorf("node %s: %s is an instance of no program rule with true order atoms", d.Fact, inst)
}

// instanceOf reports whether the ground rule inst (head, positive and
// negated atoms; provenance records no order atoms) is r under one
// substitution that also makes every order atom of r true.
func instanceOf(r, inst ast.Rule) bool {
	if len(r.Pos) != len(inst.Pos) || len(r.Neg) != len(inst.Neg) {
		return false
	}
	pattern := append(append([]ast.Atom{r.Head}, r.Pos...), r.Neg...)
	target := append(append([]ast.Atom{inst.Head}, inst.Pos...), inst.Neg...)
	s, pv := unify.Subst{}, unify.PatternVars(pattern...)
	for i := range pattern {
		if !target[i].Ground() {
			return false
		}
		if _, ok := s.MatchBind(pattern[i], target[i], pv, nil); !ok {
			return false
		}
	}
	for _, c := range r.Cmp {
		if g := s.ApplyCmp(c); g.Left.IsVar() || g.Right.IsVar() || !g.Eval() {
			return false
		}
	}
	return true
}

// refMaxDerived bounds the fixpoints the fuzz targets check against the
// reference, whose joins are nested loops over whole relations.
const refMaxDerived = 500

// dbFacts lists every fact of db, the form internal/refeval takes.
func dbFacts(db *DB) []ast.Atom {
	var out []ast.Atom
	for _, pred := range db.Preds() {
		out = append(out, db.Facts(pred)...)
	}
	return out
}

// requireReference runs the engine and asserts that the relations equal
// the reference evaluator's and that every derivation tree is valid
// (runEngine). It returns the run.
func requireReference(t *testing.T, label string, p *ast.Program, db *DB) engineRun {
	t.Helper()
	want := refeval.Eval(p, dbFacts(db))
	run := runEngine(t, p, db, Options{})
	if !reflect.DeepEqual(run.preds, want) {
		t.Fatalf("%s: relations differ:\nreference %v\nengine    %v", label, want, run.preds)
	}
	return run
}

// --- named workloads ------------------------------------------------------

// pinnedStats are the Equal-compared counters of one evaluation,
// RoundDeltas rendered round by round as sorted pred:count lists.
type pinnedStats struct {
	iterations               int
	firings, derived, probes int64
	roundDeltas              string
}

// pinnedOrder is what the counters cannot see of one evaluation: the
// order tuples were appended in and the first derivation recorded for
// each, as a hash of the provenance rendered in insertion order, and
// the footprint high-water mark. Captured at commit a056174, the last
// one where a task buffered its heads and the barrier merged the
// buffers in task order: appending in place must reproduce that order.
type pinnedOrder struct {
	prov string
	peak int64
}

func pinOrder(r engineRun) pinnedOrder {
	h := fnv.New64a()
	h.Write([]byte(r.prov))
	return pinnedOrder{fmt.Sprintf("%016x", h.Sum64()), r.stats.PeakMaterialized}
}

// namedOrders holds TestNamedWorkloads' order pins.
var namedOrders = map[string]pinnedOrder{
	"trans closure":              {"ae32c446ef44205b", 781},
	"goodPath":                   {"5e1b2931dea069cd", 437},
	"multi-rule":                 {"84bffd1744e0db14", 519},
	"edge cases":                 {"83ff31d267c16b40", 16},
	"constant in IDB occurrence": {"0dbafa0873c0f47e", 623},
	"non-linear closure":         {"f2ac969387a97669", 720},
}

func pinStats(s *Stats) pinnedStats {
	var rounds []string
	for _, m := range s.RoundDeltas() {
		var ks []string
		for k, v := range m {
			ks = append(ks, fmt.Sprintf("%s:%d", k, v))
		}
		sort.Strings(ks)
		rounds = append(rounds, strings.Join(ks, ","))
	}
	return pinnedStats{s.Iterations, s.RuleFirings, s.TuplesDerived, s.JoinProbes, strings.Join(rounds, " ")}
}

// countdown renders the RoundDeltas of a transitive closure over an
// n-edge chain: n new paths in round one, one fewer each round, then
// the empty round that ends the fixpoint.
func countdown(pred string, n int) string {
	var rounds []string
	for k := n; k >= 1; k-- {
		rounds = append(rounds, fmt.Sprintf("%s:%d", pred, k))
	}
	return strings.Join(append(rounds, ""), " ")
}

// TestNamedWorkloads checks six programs against the reference
// evaluator and pins their counters. The first four were captured at
// commit 7c56bc3, where the compiled engine and the since-deleted legacy
// interpreter agreed on every one of them; they catch counter drift
// (probe accounting, firing accounting, round structure) that no answer
// comparison can see.
func TestNamedWorkloads(t *testing.T) {
	goodPathDB := chainEDB(30)
	goodPathDB.AddFact(ast.NewAtom("startPoint", ast.N(3)))
	goodPathDB.AddFact(ast.NewAtom("endPoint", ast.N(20)))
	multiDB := NewDB()
	for i := 0; i < 10; i++ {
		multiDB.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i+1)%10))))
		multiDB.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64((i*3)%10))))
	}
	multiDB.AddFact(ast.NewAtom("blocked", ast.N(3)))
	edgeDB := chainEDB(6)
	edgeDB.AddFact(ast.NewAtom("start", ast.N(1)))
	edgeDB.AddFact(ast.NewAtom("final", ast.N(5)))
	edgeDB.AddFact(ast.NewAtom("selfstep", ast.N(2), ast.N(2)))
	edgeDB.AddFact(ast.NewAtom("selfstep", ast.N(2), ast.N(3)))
	goodPathDeltas := strings.Replace(countdown("path", 29), "path:12", "goodPath:1,path:12", 1)
	multiDeltas := "back:20,reach:18 back:30,far:11,joined:30,meet:2,reach:22 " +
		"back:50,far:10,joined:51,meet:22,reach:27,sym:16 far:8,joined:9,meet:43,reach:17,sym:28 " +
		"far:6,meet:17,reach:5,sym:18 far:3,meet:5,reach:1,sym:8 far:1,meet:1,sym:2 "
	constDeltas := "t:32 r:2,t:40 r:1,t:48 r:4,t:56 r:3,t:64 r:3,t:72 r:4,t:64 r:1,t:56 r:3,t:48 t:40 r:2,t:32 t:24 r:1 "
	edgeDeltas := "loop:1,reach:1 reach:1,tagged:1 reach:1,tagged:1 reach:1,tagged:1 reach:1,tagged:1 halt:1,reach:1,tagged:1 tagged:1 "
	for _, w := range []struct {
		name, src string
		db        *DB
		pinned    pinnedStats
	}{
		{"trans closure", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			?- path.
		`, chainEDB(40), pinnedStats{40, 780, 780, 1560, countdown("path", 39)}},
		{"goodPath", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
			?- goodPath.
		`, goodPathDB, pinnedStats{30, 436, 436, 1333, goodPathDeltas}},
		{"multi-rule", `
			reach(X, Y) :- edge(X, Y), !blocked(X).
			reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
			back(X, Y) :- edge(Y, X).
			back(X, Y) :- back(X, Z), back(Z, Y).
			meet(X, Y) :- reach(X, Y), back(X, Y).
			joined(X, Z) :- reach(X, Y), reach(Y, Z).
			far(X, Y) :- reach(X, Y), X < Y.
			sym(X, Y) :- reach(X, Y), reach(Y, X), X != Y.
			?- meet.
		`, multiDB, pinnedStats{8, 2839, 481, 3752, multiDeltas}},
		// Zero-ary predicates, constants in heads and bodies, repeated
		// variables, negation on an absent relation.
		{"edge cases", `
			halt :- reach(X), final(X).
			reach(X) :- start(X).
			reach(Y) :- reach(X), step(X, Y).
			loop(X) :- selfstep(X, X).
			tagged(X, 99) :- reach(X), !missing(X).
			?- halt.
		`, edgeDB, pinnedStats{8, 14, 14, 27, edgeDeltas}},
		// The two programs the semi-naive delta window has paths of its
		// own for, pinned at commit 4937537, where the delta still was a
		// relation of its own. An IDB occurrence carrying a constant: as
		// the delta atom it is probed at depth 0 with a bound position,
		// so the window is walked in row order and only matching rows
		// count as probes.
		{"constant in IDB occurrence", `
			t(A, B) :- e(A, B).
			t(A, C) :- t(A, B), e(B, C).
			r(Y) :- t(1, X), f(X, Y).
			?- r.
		`, deltaWindowDB(), pinnedStats{14, 848, 600, 1448, constDeltas}},
		// A non-linear rule: one relation read as delta window and as
		// full snapshot by the same task.
		{"non-linear closure", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- path(X, Z), path(Z, Y).
			?- path.
		`, deltaWindowDB(), pinnedStats{6, 17984, 576, 19136, "path:32 path:40 path:104 path:256 path:144 "}},
	} {
		p := parser.MustParseProgram(w.src)
		run := requireReference(t, w.name, p, w.db)
		if got := pinStats(&run.stats); got != w.pinned {
			t.Errorf("%s: counters moved:\ngot  %+v\nwant %+v", w.name, got, w.pinned)
		}
		if got := pinOrder(run); got != namedOrders[w.name] {
			t.Errorf("%s: tuple order, provenance or footprint moved:\ngot  %+v\nwant %+v", w.name, got, namedOrders[w.name])
		}
	}
}

// deltaWindowDB is a 24-node graph for TestDeltaWindowWorkloads: a cycle
// with chords (so closures take several rounds and rederive many tuples)
// over e/step, and f mapping every node to two values.
func deltaWindowDB() *DB {
	db := NewDB()
	n := func(i int) ast.Term { return ast.N(float64(i % 24)) }
	for i := 0; i < 24; i++ {
		for _, pred := range []string{"e", "step"} {
			db.AddFact(ast.NewAtom(pred, n(i), n(i+1)))
			if i%3 == 0 {
				db.AddFact(ast.NewAtom(pred, n(i), n(i+7)))
			}
		}
		db.AddFact(ast.NewAtom("f", n(i), n(i*10)))
		db.AddFact(ast.NewAtom("f", n(i), n(i+100)))
	}
	return db
}

func TestCompiledZeroSubgoalRules(t *testing.T) {
	// Rules with no positive subgoals exercise the finish-step filter
	// path: their comparisons can never become ground mid-join.
	p := &ast.Program{
		Rules: []ast.Rule{
			{Head: ast.NewAtom("flag", ast.N(1))},
			{Head: ast.NewAtom("flag", ast.N(2)), Cmp: []ast.Cmp{ast.NewCmp(ast.N(2), ast.LT, ast.N(3))}},
			{Head: ast.NewAtom("flag", ast.N(3)), Cmp: []ast.Cmp{ast.NewCmp(ast.N(3), ast.LT, ast.N(2))}},
		},
		Query: "flag",
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	run := requireReference(t, "zero-subgoal", p, NewDB())
	if got := run.preds["flag"]; !reflect.DeepEqual(got, []string{"flag(1)", "flag(2)"}) {
		t.Fatalf("flag = %v", got)
	}
}

// TestCompiledGreedyReorder pins a workload where the greedy planner
// genuinely reorders (a constant-bearing subgoal moves first).
func TestCompiledGreedyReorder(t *testing.T) {
	p := parser.MustParseProgram(`
		out(X, Y) :- e(X, Y), f(Y, 3).
		?- out.
	`)
	if got := joinOrder(p.Rules[0], -1, false, nil, nil); reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatal("expected greedy order to diverge from rule order (f has a constant)")
	}
	rng := rand.New(rand.NewSource(11))
	db := NewDB()
	for i := 0; i < 60; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(rng.Intn(10))), ast.N(float64(rng.Intn(10)))))
		db.AddFact(ast.NewAtom("f", ast.N(float64(rng.Intn(10))), ast.N(float64(rng.Intn(5)))))
	}
	requireReference(t, "greedy reorder", p, db)
}

// --- randomized programs --------------------------------------------------

// TestCompiledDifferentialRandomPrograms generates random programs
// (random rule subsets, constants, comparisons, negation) over random
// databases and holds each to requireReference.
func TestCompiledDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	extras := []string{
		"q(X, Y) :- p(X, Y), f(Y, %c).\n",
		"q(X, Y) :- f(X, %c), p(X, Y).\n",
		"r(X) :- p(X, X).\n",
		"s(X, Y) :- p(X, Y), X < Y, !g(X).\n",
		"u(X) :- e(X, Y), f(Y, %c), Y > %c.\n",
		"v(X, Z) :- p(X, Y), p(Y, Z), X != Z.\n",
	}
	for trial := 0; trial < 12; trial++ {
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
		requireReference(t, fmt.Sprintf("random trial %d\n%s", trial, src), p, db)
	}
}

// --- budget and cancellation ---------------------------------------------

// TestBudgetErrorWorkerInvariant: exceeding MaxTuples wraps ErrBudget
// with a fixed text. (The name dates from the worker pool, which had to
// produce the same text from whichever task tripped first.)
func TestBudgetErrorWorkerInvariant(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	_, _, err := EvalCtx(context.Background(), p, chainEDB(100), Options{MaxTuples: 50})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected a budget error, got %v", err)
	}
	if want := "eval: derived-tuple budget exceeded (budget 50)"; err.Error() != want {
		t.Fatalf("error text %q, want %q", err.Error(), want)
	}
}

func TestCompiledCancellation(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := EvalCtx(ctx, p, db, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// --- unit tests for the interned layer ------------------------------------

func TestInternerRoundTrip(t *testing.T) {
	in := newInterner()
	terms := []ast.Term{ast.N(1), ast.S("x"), ast.S("1"), ast.N(1.5), ast.N(1)}
	ids := make([]uint32, len(terms))
	for i, tm := range terms {
		ids[i] = in.intern(tm)
	}
	if ids[0] != ids[4] {
		t.Fatal("equal terms must share an id")
	}
	if ids[0] == ids[2] {
		t.Fatal("number 1 and string 1 must differ")
	}
	for i, tm := range terms {
		if !in.term(ids[i]).Equal(tm) {
			t.Fatalf("roundtrip failed for %v", tm)
		}
		if in.termKey(ids[i]) != tm.Key() {
			t.Fatalf("termKey mismatch for %v", tm)
		}
	}
}

func TestIrelAddContains(t *testing.T) {
	r := newIrel(2, 0)
	if !r.add([]uint32{1, 2}) || r.add([]uint32{1, 2}) {
		t.Fatal("dedup broken")
	}
	for i := uint32(0); i < 2000; i++ {
		r.add([]uint32{i % 50, i})
	}
	if !r.whole().Contains([]uint32{1, 2}) || r.whole().Contains([]uint32{2, 1}) {
		t.Fatal("contains broken")
	}
	if r.n != 2001 {
		t.Fatalf("n = %d", r.n)
	}
}

func TestIrelZeroArity(t *testing.T) {
	r := newIrel(0, 0)
	if r.whole().Contains(nil) {
		t.Fatal("empty zero-ary relation must not contain the empty row")
	}
	if !r.add(nil) || r.add(nil) {
		t.Fatal("zero-ary add/dedup broken")
	}
	if !r.whole().Contains(nil) || r.n != 1 {
		t.Fatal("zero-ary contains broken")
	}
}

func TestRowIndexChainsAscending(t *testing.T) {
	r := newIrel(2, 0)
	for i := uint32(0); i < 500; i++ {
		r.add([]uint32{i % 7, i})
	}
	ix := r.index(1<<0, []int{0})
	for key := uint32(0); key < 7; key++ {
		var got []int32
		for ri := ix.lookup(r, []uint32{key}); ri >= 0; ri = ix.next[ri] {
			got = append(got, ri)
		}
		var want []int32
		for i := 0; i < r.n; i++ {
			if r.row(i)[0] == key {
				want = append(want, int32(i))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("key %d: chain %v, want ascending %v", key, got, want)
		}
	}
	if ix.lookup(r, []uint32{9}) != -1 {
		t.Fatal("missing key must return -1")
	}
	// Incremental append after the index exists.
	r.add([]uint32{3, 9999})
	last := int32(-1)
	for ri := ix.lookup(r, []uint32{3}); ri >= 0; ri = ix.next[ri] {
		last = ri
	}
	if last != int32(r.n-1) {
		t.Fatalf("appended row not at chain tail: %d", last)
	}
}

func TestGreedyJoinOrder(t *testing.T) {
	greedy := func(r ast.Rule, occ int) []int { return joinOrder(r, occ, false, nil, nil) }
	r := parser.MustParseProgram(`
		out(X, Y) :- e(X, Y), f(Y, 3).
		?- out.
	`).Rules[0]
	if got := greedy(r, -1); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("constants must pull f first: %v", got)
	}
	// Delta occurrence stays first even when another subgoal scores
	// higher.
	if got := greedy(r, 0); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("delta occurrence must stay first: %v", got)
	}
	r2 := parser.MustParseProgram(`
		tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).
		?- tri.
	`).Rules[0]
	// No constants anywhere: ties break to the lowest index, i.e. rule
	// order.
	if got := greedy(r2, -1); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("tie-break must keep rule order: %v", got)
	}
	if got := greedy(r2, 2); !reflect.DeepEqual(got, []int{2, 0, 1}) {
		t.Fatalf("delta-first then bound-greedy: %v", got)
	}
	// With lengths, a tie between two EDB subgoals goes to the shorter
	// relation; an IDB subgoal keeps the place its index gives it in a
	// tie.
	p3 := parser.MustParseProgram(`
		q(X) :- big(X, Y), p(Y), small(Y).
		r(X) :- p(X), wide(Y), small(Y).
		p(Y) :- small(Y).
		?- q.
	`)
	lens := map[string]int{"big": 30000, "wide": 30000, "small": 5}
	order := func(ri int) []int {
		return joinOrder(p3.Rules[ri], -1, false, p3.IDB(), func(pred string) int { return lens[pred] })
	}
	if got := order(0); !reflect.DeepEqual(got, []int{2, 0, 1}) {
		t.Fatalf("the 5-row relation must go first: %v", got)
	}
	if got := order(1); !reflect.DeepEqual(got, []int{0, 2, 1}) {
		t.Fatalf("an IDB subgoal heading a tie must keep it: %v", got)
	}
	lens["small"] = 40000
	if got := order(0); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("the longer relation must yield the tie: %v", got)
	}
}

func TestDBCloneDirectCopy(t *testing.T) {
	db := NewDB()
	db.AddFact(ast.NewAtom("e", ast.N(1), ast.N(2)))
	db.AddFact(ast.NewAtom("e", ast.N(2), ast.N(3)))
	clone := db.Clone()
	if clone.Count("e") != 2 || !clone.Contains(ast.NewAtom("e", ast.N(1), ast.N(2))) {
		t.Fatal("clone lost tuples")
	}
	// Adding to the clone must not affect the original (seen maps are
	// independent).
	clone.AddFact(ast.NewAtom("e", ast.N(9), ast.N(9)))
	if db.Count("e") != 2 {
		t.Fatal("clone shares state with original")
	}
	if !clone.Contains(ast.NewAtom("e", ast.N(9), ast.N(9))) {
		t.Fatal("clone add failed")
	}
}
