package eval

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/parser"
)

// chainProgram builds a transitive-closure workload big enough that
// evaluation takes visibly long (hundreds of rounds over a growing
// IDB), so a mid-fixpoint cancellation has something to interrupt.
func chainProgram(t testing.TB, n int) (*ast.Program, *DB) {
	t.Helper()
	p, err := parser.ParseProgram(`
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
		?- p.
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	for i := 0; i < n; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	return p, db
}

func TestEvalCtxNilAndBackground(t *testing.T) {
	p, db := chainProgram(t, 20)
	for _, ctx := range []context.Context{nil, context.Background()} {
		idb, stats, err := EvalCtx(ctx, p, db, DefaultOptions())
		if err != nil {
			t.Fatalf("EvalCtx(%v): %v", ctx, err)
		}
		want := 20 * 21 / 2
		if got := idb.Count("p"); got != want {
			t.Fatalf("answers = %d, want %d", got, want)
		}
		if stats.Iterations == 0 {
			t.Fatal("no rounds recorded")
		}
	}
}

func TestEvalCtxAlreadyCancelled(t *testing.T) {
	p, db := chainProgram(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := EvalCtx(ctx, p, db, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// pollCtx is a context whose Err starts reporting err on its after-th
// call: a cancellation that arrives after a known amount of evaluation,
// however fast the evaluation is. It also samples the goroutine count at
// every poll, from inside the evaluation. Not synchronized: an
// evaluation polls from the one goroutine it runs on.
type pollCtx struct {
	context.Context
	after      int
	err        error
	polls      int
	goroutines map[int]bool
}

func (c *pollCtx) Err() error {
	c.polls++
	c.goroutines[runtime.NumGoroutine()] = true
	if c.polls >= c.after {
		return c.err
	}
	return nil
}

// wideRound is a fixpoint whose work is all in its first round: n*n+n
// join probes and n*n derived tuples before the next round barrier, so
// only the poll inside the join can stop it early.
func wideRound(t testing.TB, n int) (*ast.Program, *DB) {
	t.Helper()
	p, err := parser.ParseProgram("q(X, Y) :- e(X), e(Y).\n?- q.\n")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	for i := 0; i < n; i++ {
		db.AddFact(ast.NewAtom("e", ast.N(float64(i))))
	}
	return p, db
}

// requireStopsAtPoll runs wideRound(n) under a context that reports
// want from its after-th poll on and requires the error, a return at
// that very poll, no more work than after poll intervals' worth — the
// first poll is round 0's barrier, the rest come one per
// cancelPollMask+1 probes, and every probe but the first n derives one
// tuple — and a goroutine count that never moved. Nothing here depends
// on how long the evaluation takes; without the poll in the join the
// context is asked twice (two barriers) and the evaluation completes.
func requireStopsAtPoll(t *testing.T, n, after int, want error) {
	t.Helper()
	p, db := wideRound(t, n)
	if _, _, err := EvalCtx(context.Background(), p, db, Options{}); err != nil { // intern the base outside the measurement
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx := &pollCtx{Context: context.Background(), after: after, err: want, goroutines: map[int]bool{}}
	prov := &Provenance{steps: map[string]provStep{}}
	_, err := evalCompiled(ctx, p, db, DefaultOptions(), prov)
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if ctx.polls != after {
		t.Fatalf("evaluation polled %d times, want a return at poll %d", ctx.polls, after)
	}
	if got, max := len(prov.steps), (after-1)*(cancelPollMask+1); got == 0 || got > max {
		t.Fatalf("%d tuples derived before the stop, want 1..%d", got, max)
	}
	if len(ctx.goroutines) != 1 || !ctx.goroutines[before] || runtime.NumGoroutine() != before {
		t.Fatalf("goroutine count moved across the evaluation: %d before, %v during, %d after",
			before, ctx.goroutines, runtime.NumGoroutine())
	}
}

// TestEvalCtxCancelMidFixpoint: a cancellation that lands mid-round
// stops the evaluation at the next poll inside the join.
func TestEvalCtxCancelMidFixpoint(t *testing.T) {
	requireStopsAtPoll(t, 300, 4, context.Canceled)
	requireStopsAtPoll(t, 50, 2, context.Canceled) // a fixpoint of microseconds stops the same way
}

func TestEvalCtxDeadline(t *testing.T) {
	requireStopsAtPoll(t, 300, 7, context.DeadlineExceeded)
}

func TestErrBudgetSentinel(t *testing.T) {
	p, db := chainProgram(t, 100)
	opts := DefaultOptions()
	opts.MaxTuples = 10
	_, _, err := EvalCtx(context.Background(), p, db, opts)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget error must not look like cancellation: %v", err)
	}
}

// TestEvalCtxDeterminismUnaffected: threading a live (never cancelled)
// context must not change answers or stats relative to
// context.Background().
func TestEvalCtxDeterminismUnaffected(t *testing.T) {
	p, db := chainProgram(t, 60)
	idb1, s1, err := EvalCtx(context.Background(), p, db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	idb2, s2, err := EvalCtx(ctx, p, db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Fatalf("stats diverged: %+v vs %+v", *s1, *s2)
	}
	a1, a2 := idb1.SortedFacts("p"), idb2.SortedFacts("p")
	if len(a1) != len(a2) {
		t.Fatalf("answer counts diverged: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("answers diverged at %d: %s vs %s", i, a1[i], a2[i])
		}
	}
}
