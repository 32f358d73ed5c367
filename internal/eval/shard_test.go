package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/refeval"
)

// --- sharded-evaluation differential harness ------------------------------
//
// The tentpole contract: answers, Stats (including derivation counts
// and per-round deltas), and provenance are bit-identical to
// single-shard evaluation at any shard count, for every worker count
// and both partitioners. The baseline is the unsharded run (itself held
// to the reference evaluator's answers), so the assertion is exactly
// "sharding is invisible except for ShardExchanged".

var shardCounts = []int{1, 2, 4}

func requireShardsIdentical(t *testing.T, label string, p *ast.Program, db *DB) {
	t.Helper()
	base := runEngine(t, p, db, Options{Seminaive: true})
	if base.stats.ShardExchanged != 0 {
		t.Fatalf("%s: unsharded run reports ShardExchanged=%d", label, base.stats.ShardExchanged)
	}
	if want := refeval.Eval(p, dbFacts(db)); !reflect.DeepEqual(base.preds, want) {
		t.Fatalf("%s: unsharded answers differ from the reference:\n%v\nvs\n%v", label, base.preds, want)
	}
	for _, workers := range []int{1, 4} {
		for _, shards := range shardCounts {
			parts := []string{"modulo"}
			if shards > 1 {
				parts = append(parts, "rendezvous")
			}
			for _, part := range parts {
				opts := Options{Seminaive: true, Workers: workers, Shards: shards, ShardPartitioner: part}
				cr := runEngine(t, p, db, opts)
				ctx := fmt.Sprintf("%s (workers=%d shards=%d part=%s)", label, workers, shards, part)
				if !cr.stats.Equal(&base.stats) {
					t.Fatalf("%s: stats differ from unsharded:\nbase    %+v\nsharded %+v", ctx, base.stats, cr.stats)
				}
				if !reflect.DeepEqual(cr.preds, base.preds) {
					t.Fatalf("%s: answers differ from unsharded", ctx)
				}
				if cr.prov != base.prov {
					t.Fatalf("%s: provenance differs from unsharded", ctx)
				}
				if shards <= 1 && cr.stats.ShardExchanged != 0 {
					t.Fatalf("%s: ShardExchanged=%d without sharding", ctx, cr.stats.ShardExchanged)
				}
			}
		}
	}
}

func TestShardDifferentialTransClosure(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	requireShardsIdentical(t, "trans closure", p, chainEDB(40))
}

func TestShardDifferentialMultiRule(t *testing.T) {
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
	requireShardsIdentical(t, "multi-rule", p, db)
}

// TestShardDifferentialDuplicateHeavy stresses the provenance winner:
// the same head is derivable from many depth-0 rows in one round, so
// the k-way merge must reproduce exactly the first derivation a single
// task would record.
func TestShardDifferentialDuplicateHeavy(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- e(X, Y).
		pair(X, Z) :- e(X, Y), e(Y, Z).
		?- q.
	`)
	rng := rand.New(rand.NewSource(11))
	db := NewDB()
	for i := 0; i < 300; i++ {
		db.AddFact(ast.NewAtom("e",
			ast.N(float64(rng.Intn(8))), ast.N(float64(rng.Intn(8)))))
	}
	requireShardsIdentical(t, "duplicate-heavy", p, db)
}

func TestShardDifferentialRandomGraphs(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		sym(X, Y) :- path(X, Y), path(Y, X), X != Y.
		?- path.
	`)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		db := NewDB()
		n := 4 + rng.Intn(7)
		for i := 0; i < n*3; i++ {
			db.AddFact(ast.NewAtom("edge",
				ast.N(float64(rng.Intn(n))), ast.N(float64(rng.Intn(n)))))
		}
		requireShardsIdentical(t, fmt.Sprintf("random trial %d", trial), p, db)
	}
}

// TestShardCostPolicy: the cost policy re-plans at round barriers from
// global relation statistics, which sharding does not change, so full
// Stats and provenance stay bit-identical to the unsharded cost run.
func TestShardCostPolicy(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- edge(X, Y), tag(Y).
		r(X, Y) :- q(X), edge(X, Y).
		?- r.
	`)
	db := filterSkewDB(800)
	base := runEngine(t, p, db, Options{Seminaive: true, Policy: PolicyCost})
	for _, shards := range []int{2, 4} {
		cr := runEngine(t, p, db, Options{Seminaive: true,
			Policy: PolicyCost, Shards: shards, Workers: 4})
		if !cr.stats.Equal(&base.stats) {
			t.Fatalf("shards=%d: cost stats differ:\n%+v\nvs\n%+v", shards, base.stats, cr.stats)
		}
		if !reflect.DeepEqual(cr.preds, base.preds) || cr.prov != base.prov {
			t.Fatalf("shards=%d: cost answers/provenance differ", shards)
		}
	}
}

// TestShardAblations: naive rounds keep answers and Stats identical
// under sharding too.
func TestShardAblations(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(25)
	for _, seminaive := range []bool{true, false} {
		base := runEngine(t, p, db, Options{Seminaive: seminaive})
		cr := runEngine(t, p, db, Options{Seminaive: seminaive, Shards: 3, Workers: 2})
		if !cr.stats.Equal(&base.stats) || !reflect.DeepEqual(cr.preds, base.preds) {
			t.Fatalf("seminaive=%v: sharded ablation differs", seminaive)
		}
	}
}

// TestShardExchangedDeterministic pins the content-based partitioner:
// the cross-shard traffic counter is identical across runs and across
// EDB insertion orders (which intern terms in different orders) —
// neither may influence shard ownership.
func TestShardExchangedDeterministic(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(30)
	opts := Options{Seminaive: true, Shards: 4, Workers: 2}
	first := runEngine(t, p, db, opts)
	if first.stats.ShardExchanged == 0 {
		t.Fatal("expected nonzero cross-shard traffic on a 30-node chain")
	}
	for run := 0; run < 3; run++ {
		again := runEngine(t, p, db, opts)
		if again.stats.ShardExchanged != first.stats.ShardExchanged {
			t.Fatalf("ShardExchanged varies across runs: %d vs %d",
				again.stats.ShardExchanged, first.stats.ShardExchanged)
		}
	}

	// Symbol-table growth: inserting the same facts in reverse order
	// assigns every term a different intern id. On a single-derivation
	// workload (each head has exactly one deriving row) the deriving
	// shard of every tuple is order-independent, so ShardExchanged must
	// not move — it would if ownership hashed intern ids.
	p1 := parser.MustParseProgram("q(X, Y) :- e(X, Y).\n?- q.\n")
	fwd, rev := NewDB(), NewDB()
	for i := 0; i < 50; i++ {
		fwd.AddFact(ast.NewAtom("e", ast.N(float64(i)), ast.N(float64(i*7%50))))
	}
	for i := 49; i >= 0; i-- {
		rev.AddFact(ast.NewAtom("e", ast.N(float64(i)), ast.N(float64(i*7%50))))
	}
	for _, part := range []string{"modulo", "rendezvous"} {
		o := Options{Seminaive: true, Shards: 4, ShardPartitioner: part}
		a := runEngine(t, p1, fwd, o)
		b := runEngine(t, p1, rev, o)
		if a.stats.ShardExchanged != b.stats.ShardExchanged {
			t.Fatalf("part=%s: ShardExchanged depends on interning order: %d vs %d",
				part, a.stats.ShardExchanged, b.stats.ShardExchanged)
		}
		if !reflect.DeepEqual(a.preds, b.preds) {
			t.Fatalf("part=%s: answers depend on insertion order", part)
		}
	}
}

func TestShardBudgetAndCancellation(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := chainEDB(100)
	_, _, err := EvalWith(p, db, Options{Seminaive: true, Shards: 4, Workers: 4, MaxTuples: 50})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestShardOptionsValidation(t *testing.T) {
	p := parser.MustParseProgram("q(X) :- e(X, X).\n?- q.\n")
	db := NewDB()
	bad := []Options{
		{Seminaive: true, Shards: -1},
		{Seminaive: true, Shards: 1000},
		{Seminaive: true, Shards: 2, ShardPartitioner: "bogus"},
		{Seminaive: true, Shards: 2, Policy: PolicyAdaptive},
	}
	for i, o := range bad {
		if _, _, err := EvalWith(p, db, o); err == nil {
			t.Fatalf("case %d: options %+v must be rejected", i, o)
		}
	}
	// Sharding composes with the cost policy, and shards=1 is a no-op.
	for _, o := range []Options{
		{Seminaive: true, Shards: 2},
		{Seminaive: true, Shards: 1},
		{Seminaive: true, Shards: 2, ShardPartitioner: "rendezvous"},
		{Seminaive: true, Policy: PolicyCost, Shards: 2},
	} {
		if _, _, err := EvalWith(p, db, o); err != nil {
			t.Fatalf("options %+v: %v", o, err)
		}
	}
}

// TestShardQueryCtx exercises the goal-directed path: magic rewrite +
// sharding compose, answers unchanged.
func TestShardQueryCtx(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path(3, Y).
	`)
	db := chainEDB(30)
	base, _, err := QueryWith(p, db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Shards = 4
	opts.Workers = 4
	got, stats, err := QueryWith(p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.MagicApplied {
		t.Fatal("magic should apply to the bound goal")
	}
	if !reflect.DeepEqual(tupleKeys(got), tupleKeys(base)) {
		t.Fatalf("sharded goal answers differ: %v vs %v", got, base)
	}
}

func tupleKeys(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	return out
}
