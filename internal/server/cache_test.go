package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sqo "repro"
	"repro/internal/refeval"
	"repro/internal/workload"
)

const cacheTestProgram = `
	p(X, Y) :- a(X, Y).
	p(X, Y) :- b(X, Y).
	p(X, Y) :- a(X, Z), p(Z, Y).
	p(X, Y) :- b(X, Z), p(Z, Y).
	?- p.
`

const cacheTestICs = `:- a(X, Y), b(Y, Z).`

func mustKey(t *testing.T, programSrc, icsSrc string) string {
	t.Helper()
	p, err := sqo.ParseProgram(programSrc)
	if err != nil {
		t.Fatal(err)
	}
	ics, err := sqo.ParseICs(icsSrc)
	if err != nil {
		t.Fatal(err)
	}
	return CacheKey(p, ics, sqo.DefaultOptions())
}

func TestCacheKeyCanonical(t *testing.T) {
	// Whitespace and formatting differences in the source must not
	// split the cache.
	k1 := mustKey(t, cacheTestProgram, cacheTestICs)
	k2 := mustKey(t, "p(X,Y):-a(X,Y).\np(X,Y):-b(X,Y).\np(X,Y):-a(X,Z),p(Z,Y).\np(X,Y):-b(X,Z),p(Z,Y).\n?-p.", ":-a(X,Y),b(Y,Z).")
	if k1 != k2 {
		t.Fatal("formatting-only difference changed the cache key")
	}
	// Semantic differences must.
	if k1 == mustKey(t, cacheTestProgram, "") {
		t.Fatal("dropping the ic did not change the cache key")
	}
	if k1 == mustKey(t, `
		p(X, Y) :- a(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		?- p.
	`, cacheTestICs) {
		t.Fatal("dropping rules did not change the cache key")
	}
	p, _ := sqo.ParseProgram(cacheTestProgram)
	ics, _ := sqo.ParseICs(cacheTestICs)
	ablated := sqo.Options{NormalizeOrder: true} // LocalRewrite/PushOrder off
	if CacheKey(p, ics, sqo.DefaultOptions()) == CacheKey(p, ics, ablated) {
		t.Fatal("options difference did not change the cache key")
	}
}

func optimizeFn(t *testing.T, programSrc, icsSrc string) func() (*sqo.Result, error) {
	t.Helper()
	p, err := sqo.ParseProgram(programSrc)
	if err != nil {
		t.Fatal(err)
	}
	ics, err := sqo.ParseICs(icsSrc)
	if err != nil {
		t.Fatal(err)
	}
	return func() (*sqo.Result, error) { return sqo.Optimize(p, ics) }
}

func TestCacheHitMissEviction(t *testing.T) {
	c := NewCache(2)
	ctx := context.Background()

	keyA := mustKey(t, cacheTestProgram, cacheTestICs)
	keyB := mustKey(t, cacheTestProgram, "")
	keyC := mustKey(t, `
		p(X, Y) :- a(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		?- p.
	`, cacheTestICs)

	compute := optimizeFn(t, cacheTestProgram, cacheTestICs)

	// Miss, then hit.
	if _, hit, err := c.GetOrCompute(ctx, keyA, compute); err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := c.GetOrCompute(ctx, keyA, compute); err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v, want hit", hit, err)
	}

	// Fill to capacity and evict the LRU entry.
	if _, hit, _ := c.GetOrCompute(ctx, keyB, compute); hit {
		t.Fatal("keyB should miss")
	}
	// Touch A so B is the least recently used.
	if _, hit, _ := c.GetOrCompute(ctx, keyA, compute); !hit {
		t.Fatal("keyA should still be cached")
	}
	if _, hit, _ := c.GetOrCompute(ctx, keyC, compute); hit {
		t.Fatal("keyC should miss")
	}
	// B was evicted; A survived.
	if _, ok := c.get(keyB); ok {
		t.Fatal("keyB should have been evicted (LRU)")
	}
	if _, ok := c.get(keyA); !ok {
		t.Fatal("keyA should have survived eviction")
	}

	st := c.Stats()
	if st.Size != 2 {
		t.Fatalf("size = %d, want 2", st.Size)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 2/3", st.Hits, st.Misses)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(8)
	key := mustKey(t, cacheTestProgram, cacheTestICs)
	inner := optimizeFn(t, cacheTestProgram, cacheTestICs)

	var computes atomic.Int64
	var started sync.WaitGroup
	gate := make(chan struct{})
	compute := func() (*sqo.Result, error) {
		computes.Add(1)
		<-gate // hold the flight open until every goroutine has joined
		return inner()
	}

	const n = 16
	results := make([]*sqo.Result, n)
	hits := make([]bool, n)
	errs := make([]error, n)
	var done sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			results[i], hits[i], errs[i] = c.GetOrCompute(context.Background(), key, compute)
		}(i)
	}
	started.Wait()
	// Give every goroutine time to reach the flight join.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	done.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times under %d concurrent identical requests, want 1", got, n)
	}
	misses := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("request %d received a different outcome pointer", i)
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d requests reported a miss, want exactly 1 (the flight leader)", misses)
	}
	if c.Stats().Size != 1 {
		t.Fatalf("cache has %d entries after coalesced requests, want 1", c.Stats().Size)
	}
	st := c.Stats()
	if st.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	calls := 0
	compute := func() (*sqo.Result, error) {
		calls++
		return nil, boom
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.GetOrCompute(context.Background(), "k", compute); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed computation was cached: %d calls, want 2", calls)
	}
	if c.Stats().Size != 0 {
		t.Fatal("error outcome was stored")
	}
}

func TestCacheWaiterContextCancel(t *testing.T) {
	c := NewCache(4)
	gate := make(chan struct{})
	compute := func() (*sqo.Result, error) {
		<-gate
		return optimizeFn(t, cacheTestProgram, cacheTestICs)()
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = c.GetOrCompute(context.Background(), "k", compute)
	}()
	// Wait for the leader to open the flight.
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrCompute(ctx, "k", compute); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(gate)
	<-leaderDone
}

// TestCacheDifferentialExplain: a cached outcome must be
// indistinguishable from a freshly optimized one — same rewritten
// program, same query forest rendering.
func TestCacheDifferentialExplain(t *testing.T) {
	cases := []struct{ name, program, ics string }{
		{"transclosure", cacheTestProgram, cacheTestICs},
		{"goodpath", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
			?- goodPath.
		`, `
			:- startPoint(X), step(X, Y), X < 100.
			:- step(X, Y), X >= Y.
		`},
		{"quickstart", `
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
			?- goodPath.
		`, `:- startPoint(X), endPoint(Y), Y <= X.`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(8)
			key := mustKey(t, tc.program, tc.ics)
			compute := optimizeFn(t, tc.program, tc.ics)

			first, hit, err := c.GetOrCompute(context.Background(), key, compute)
			if err != nil || hit {
				t.Fatalf("prime: hit=%v err=%v", hit, err)
			}
			cached, hit, err := c.GetOrCompute(context.Background(), key, compute)
			if err != nil || !hit {
				t.Fatalf("reuse: hit=%v err=%v", hit, err)
			}
			fresh, err := compute()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sqo.Explain(cached), sqo.Explain(fresh); got != want {
				t.Fatalf("cached Explain diverges from fresh:\n--- cached ---\n%s\n--- fresh ---\n%s", got, want)
			}
			if got, want := sqo.FormatProgram(cached.Program), sqo.FormatProgram(fresh.Program); got != want {
				t.Fatalf("cached program diverges from fresh:\n--- cached ---\n%s\n--- fresh ---\n%s", got, want)
			}
			if cached != first {
				t.Fatal("cache returned a different pointer on reuse")
			}
		})
	}
}

func TestCacheCapacityFloor(t *testing.T) {
	c := NewCache(0) // clamped to 1
	compute := optimizeFn(t, cacheTestProgram, cacheTestICs)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.GetOrCompute(context.Background(), key, compute); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Size != 1 {
		t.Fatalf("len = %d, want 1", c.Stats().Size)
	}
}

// TestServerCacheKeyedByBindingPattern: sqod keeps one prepared query per
// program, constraints, optimize mode and goal binding pattern, and binds
// each request's constants to it. Every case is a run of /v1/query
// requests on a fresh server: each request must hit or miss as stated,
// report the rewrites that apply, and answer what the library answers
// for its own goal, and a hit must call neither the optimizer nor Prepare
// (which runs elim and magic) — counted through the package's rewrite
// variables; the answers come from the reference evaluator
// (internal/refeval). The mutations the cases kill: binding the seed from
// the cached goal ("constants": the hits answer for path(1, Y)); a key
// without the optimize mode ("modes": the unoptimized request hits the
// optimized entry); dropping the answer-time goal filter ("repeated
// variable": path(X, X) answers every pair, and "constants" answers the
// demanded bindings beyond the goal's).
func TestServerCacheKeyedByBindingPattern(t *testing.T) {
	const (
		dataset = "step(1, 2). step(2, 3). step(3, 1). step(3, 4). step(5, 6). likes(a, 1). likes(b, 2). trendy(c)."
		tc      = "path(X, Y) :- step(X, Y).\npath(X, Y) :- step(X, Z), path(Z, Y).\n"
		buys    = "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).\n"
	)
	type request struct {
		program    string
		noOpt, hit bool
	}
	cases := []struct {
		name string
		reqs []request
	}{
		{"constants", []request{
			{program: tc + "?- path(1, Y)."},
			{program: tc + "?- path(2, Y).", hit: true},
			{program: tc + "?- path(4, Y).", hit: true},
			{program: tc + "?- path(5, Y).", hit: true},
			{program: tc + "?- path(7, Y).", hit: true},
			{program: tc + "?- path(1, Y).", hit: true},
		}},
		{"patterns", []request{
			{program: tc + "?- path(X, 2)."},
			{program: tc + "?- path(1, Y)."},
			{program: tc + "?- path(X, 4).", hit: true},
			{program: tc + "?- path(3, Y).", hit: true},
			{program: tc + "?- path(1, 4)."},
		}},
		{"repeated variable", []request{
			{program: tc + "?- path(X, Y)."},
			{program: tc + "?- path(X, X).", hit: true},
			{program: tc + "?- path(Z, Z).", hit: true},
		}},
		{"modes", []request{
			{program: tc + "?- path(1, Y)."},
			{program: tc + "?- path(1, Y).", noOpt: true},
			{program: tc + "?- path(2, Y).", hit: true},
			{program: tc + "?- path(2, Y).", noOpt: true, hit: true},
		}},
		{"elim verdict", []request{
			{program: buys + "?- buys(a, Y).", noOpt: true},
			{program: buys + "?- buys(b, Y).", noOpt: true, hit: true},
			{program: buys + "?- buys(c, Y).", noOpt: true, hit: true},
		}},
	}

	var optimizes, prepares int
	realOptimize, realPrepare := optimizeProgram, prepareQuery
	t.Cleanup(func() { optimizeProgram, prepareQuery = realOptimize, realPrepare })
	optimizeProgram = func(ctx context.Context, p *sqo.Program, ics []sqo.IC, opts sqo.Options) (*sqo.Result, error) {
		optimizes++
		return realOptimize(ctx, p, ics, opts)
	}
	prepareQuery = func(p *sqo.Program, opts sqo.EvalOptions) (*sqo.Prepared, error) {
		prepares++
		return realPrepare(p, opts)
	}

	facts := sqo.MustParseFacts(dataset)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			registerDataset(t, ts.URL, "d", dataset)
			var hits int64
			for _, r := range c.reqs {
				label := fmt.Sprintf("%q optimize=%t", r.program[strings.Index(r.program, "?-"):], !r.noOpt)
				before := [2]int{optimizes, prepares}
				var resp queryResponse
				code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
					"program": r.program, "dataset": "d", "optimize": !r.noOpt,
				}, &resp)
				if code != http.StatusOK {
					t.Fatalf("%s: %d %s", label, code, raw)
				}
				if resp.CacheHit != r.hit {
					t.Fatalf("%s: cache_hit %t, want %t", label, resp.CacheHit, r.hit)
				}
				wantRewrites := [2]int{}
				if !r.hit {
					wantRewrites = [2]int{1, 1}
					if r.noOpt {
						wantRewrites[0] = 0
					}
				}
				if got := [2]int{optimizes - before[0], prepares - before[1]}; got != wantRewrites {
					t.Fatalf("%s: %d optimizer and %d Prepare calls, want %v", label, got[0], got[1], wantRewrites)
				}
				p := sqo.MustParseProgram(r.program)
				bound := slices.ContainsFunc(p.Goal, sqo.Term.IsConst)
				if resp.Magic != bound {
					t.Fatalf("%s: magic %t, want %t", label, resp.Magic, bound)
				}
				if wantElim := p.Query == "buys"; resp.Elim != wantElim {
					t.Fatalf("%s: elim %t, want %t", label, resp.Elim, wantElim)
				}
				want := refeval.Answers(p, facts)
				for i, a := range want {
					want[i] = strings.TrimPrefix(a, p.Query)
				}
				if !slices.Equal(resp.Answers, want) {
					t.Fatalf("%s: answers %v, want %v", label, resp.Answers, want)
				}
				if r.hit {
					hits++
				}
			}
			if st := s.cache.Stats(); st.Hits != hits || st.Misses != int64(len(c.reqs))-hits || st.Size != len(c.reqs)-int(hits) {
				t.Fatalf("cache %+v, want %d hits, %d misses and as many entries", st, hits, int64(len(c.reqs))-hits)
			}
		})
	}
}

// TestRewriteCacheKeepsNoForest: a rewrite-cache entry keeps what its
// requests read and not the optimizer's query forest. Sixteen distinct
// /v1/query bodies of Theorem 5.1's family at k = 4 (2,401 goal nodes
// each; kept whole, an entry holds about 9 MB) may grow the live heap by
// at most 2 MB per entry. And a /v1/optimize hit answers the miss's
// program and explain text, byte for byte.
func TestRewriteCacheKeepsNoForest(t *testing.T) {
	const entries = 16
	s, ts := newTestServer(t, Config{})
	prog, ics := workload.Theorem51(4)
	post := func(i int) {
		base := fmt.Sprintf("base%d", i)
		body := map[string]any{"program": strings.ReplaceAll(prog, "base", base), "ics": ics, "facts": base + "(1)."}
		var resp struct {
			AnswerCount int  `json:"answer_count"`
			Satisfiable bool `json:"satisfiable"`
			CacheHit    bool `json:"cache_hit"`
		}
		if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", body, &resp); code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, code, raw)
		}
		if resp.AnswerCount != 1 || !resp.Satisfiable || resp.CacheHit {
			t.Fatalf("query %d: %+v, want one answer, satisfiable, a miss", i, resp)
		}
	}
	post(0) // the server's own first-use allocations are not an entry's
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= entries; i++ {
		post(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := s.cache.Stats(); st.Size != entries+1 || st.Misses != entries+1 {
		t.Fatalf("cache %+v, want %d entries from as many misses", st, entries+1)
	}
	perEntry := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / entries
	t.Logf("live heap: %d bytes per entry", perEntry)
	if perEntry > 2<<20 {
		t.Fatalf("each k = 4 entry keeps %d bytes of live heap, want at most 2 MB", perEntry)
	}

	optimize := map[string]any{"program": prog, "ics": ics}
	var miss, hit optimizeResponse
	for _, out := range []*optimizeResponse{&miss, &hit} {
		if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", optimize, out); code != http.StatusOK {
			t.Fatalf("optimize: %d %s", code, raw)
		}
	}
	if miss.CacheHit || !hit.CacheHit {
		t.Fatalf("cache_hit %v then %v, want a miss then a hit", miss.CacheHit, hit.CacheHit)
	}
	if hit.Program != miss.Program || hit.Explain != miss.Explain || !strings.HasPrefix(miss.Explain, "=== tree 1: root") {
		t.Fatalf("the hit's program or explain differs from the miss's:\n--- miss ---\n%.500s\n--- hit ---\n%.500s", miss.Explain, hit.Explain)
	}
}
