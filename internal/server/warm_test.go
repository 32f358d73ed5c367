package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	sqo "repro"
)

// luckFields matches the members of a query or optimize response that
// report a request's timing and cache luck: the only bytes in which a
// request served through the request memo may differ from the same
// request served cold.
var luckFields = regexp.MustCompile(`"(optimize_ms|eval_ms|cache_hit)": [0-9a-z.e+-]+`)

// serveBody serves one request through h and returns its status and body.
func serveBody(h http.Handler, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// warmServer is a server over serverTestFacts as dataset "d".
func warmServer(t *testing.T, cfg Config, slots ...int) (*Server, http.Handler) {
	t.Helper()
	s, _ := newTestServer(t, cfg, slots...)
	h := s.Handler()
	if code, body := serveBody(h, http.MethodPut, "/v1/datasets/d", serverTestFacts); code != http.StatusOK {
		t.Fatalf("dataset put: %d %s", code, body)
	}
	return s, h
}

type cacheTicks struct{ hits, misses, coalesced, memoHits int64 }

func ticks(s *Server) cacheTicks {
	c := s.cache.Stats()
	return cacheTicks{c.Hits, c.Misses, c.Coalesced, s.metrics.RequestMemoHits.Load()}
}

func (a cacheTicks) minus(b cacheTicks) cacheTicks {
	return cacheTicks{a.hits - b.hits, a.misses - b.misses, a.coalesced - b.coalesced, a.memoHits - b.memoHits}
}

// TestWarmRequestPath walks a request text through the request memo on a
// server whose rewrite cache and memo hold two entries each: a cold
// request, its warm repeat, another constant of its binding pattern,
// "optimize": false, an optimize request and its repeat, and the first
// request again once both its memo entry and its cache entry were
// evicted. Every body matches, but for its timing and cache_hit members,
// the body a fresh server answers to the same request; the cache
// counters tick as they did before the memo (hits by pattern, misses by
// rewrite); the memo ticks sqod_request_memo_hits_total on a repeated
// text alone and never holds more than CacheSize entries.
func TestWarmRequestPath(t *testing.T) {
	s, h := warmServer(t, Config{CacheSize: 2})
	query := func(goal, extra string) string {
		return `{"program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- ` + goal +
			`.", "ics": ":- step(X, Y), Y <= X.", "dataset": "d"` + extra + `}`
	}
	optimize := `{"program": ` + jsonString(serverTestProgram) + `, "ics": ` + jsonString(serverTestICs) + `}`
	for _, step := range []struct {
		name, path, body string
		want             cacheTicks
	}{
		{"cold", "/v1/query", query("path(1, Y)", ""), cacheTicks{misses: 1}},
		{"warm repeat", "/v1/query", query("path(1, Y)", ""), cacheTicks{hits: 1, memoHits: 1}},
		{"another constant", "/v1/query", query("path(2, Y)", ""), cacheTicks{hits: 1}},
		{"its repeat", "/v1/query", query("path(2, Y)", ""), cacheTicks{hits: 1, memoHits: 1}},
		{"optimize false", "/v1/query", query("path(1, Y)", `, "optimize": false`), cacheTicks{misses: 1}},
		{"optimize false, repeated", "/v1/query", query("path(1, Y)", `, "optimize": false`), cacheTicks{hits: 1, memoHits: 1}},
		{"optimize", "/v1/optimize", optimize, cacheTicks{misses: 1}},
		{"optimize, repeated", "/v1/optimize", optimize, cacheTicks{hits: 1, memoHits: 1}},
		{"whole relation", "/v1/query", query("path", ""), cacheTicks{misses: 1}},
		{"cold after eviction", "/v1/query", query("path(1, Y)", ""), cacheTicks{misses: 1}},
		{"warm again", "/v1/query", query("path(1, Y)", ""), cacheTicks{hits: 1, memoHits: 1}},
	} {
		before := ticks(s)
		code, body := serveBody(h, http.MethodPost, step.path, step.body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", step.name, code, body)
		}
		if got := ticks(s).minus(before); got != step.want {
			t.Errorf("%s: counters ticked %+v, want %+v", step.name, got, step.want)
		}
		_, fresh := warmServer(t, Config{})
		_, want := serveBody(fresh, http.MethodPost, step.path, step.body)
		if got, want := luckFields.ReplaceAllString(body, "$1"), luckFields.ReplaceAllString(want, "$1"); got != want {
			t.Errorf("%s: body differs from a fresh server's:\n%s\nvs\n%s", step.name, body, want)
		}
		if n := s.requests.Stats().Size; n > 2 {
			t.Errorf("%s: the request memo holds %d entries, want at most CacheSize 2", step.name, n)
		}
	}
}

// TestRequestMemoKeepsNoParseError: a text that fails to parse, or
// declares no query, answers 400 each time it comes and never enters
// the memo.
func TestRequestMemoKeepsNoParseError(t *testing.T) {
	s, h := warmServer(t, Config{})
	for _, c := range []struct{ path, body, code string }{
		{"/v1/query", `{"program": "path(X, Y) :- step(X, Y", "dataset": "d"}`, "parse_error"},
		{"/v1/query", `{"program": "path(X, Y) :- step(X, Y). ?- path.", "ics": ":- step(X", "dataset": "d"}`, "parse_error"},
		{"/v1/query", `{"program": "path(X, Y) :- step(X, Y).", "dataset": "d"}`, "bad_request"},
		{"/v1/optimize", `{"program": "path(X, Y) :- step(X, Y). ?- path.", "ics": ":- step(X"}`, "parse_error"},
	} {
		for i := 0; i < 3; i++ {
			code, body := serveBody(h, http.MethodPost, c.path, c.body)
			if code != http.StatusBadRequest || !strings.Contains(body, `"code": "`+c.code+`"`) {
				t.Fatalf("%s %s, request %d: %d %s", c.path, c.body, i, code, body)
			}
		}
	}
	if n, hits := s.requests.Stats().Size, s.metrics.RequestMemoHits.Load(); n != 0 || hits != 0 {
		t.Fatalf("the memo holds %d entries and was hit %d times after failed parses alone", n, hits)
	}
}

// TestRequestMemoCoalescing: concurrent first requests of one text share
// one rewrite as they did before the memo — one miss, and the rest
// coalesce onto it and count as hits — whether each read the text itself
// or found it in the memo.
func TestRequestMemoCoalescing(t *testing.T) {
	s, h := warmServer(t, Config{}, 8)
	release := make(chan struct{})
	realPrepare := prepareQuery
	t.Cleanup(func() { prepareQuery = realPrepare })
	prepareQuery = func(p *sqo.Program, opts sqo.EvalOptions) (*sqo.Prepared, error) {
		<-release
		return realPrepare(p, opts)
	}
	body := `{"program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path(X, 4).", "dataset": "d"}`
	const n = 4
	before := ticks(s)
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, bodies[i] = serveBody(h, http.MethodPost, "/v1/query", body)
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for s.cache.Stats().Coalesced-before.coalesced < n-1 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	got := ticks(s).minus(before)
	if got.hits != n-1 || got.misses != 1 || got.coalesced != n-1 || got.memoHits > n-1 {
		t.Fatalf("counters ticked %+v, want 1 miss and %d coalesced hits", got, n-1)
	}
	for i := range bodies {
		if luckFields.ReplaceAllString(bodies[i], "$1") != luckFields.ReplaceAllString(bodies[0], "$1") || !strings.Contains(bodies[i], `"answer_count": 4`) {
			t.Fatalf("request %d answered %s, request 0 %s", i, bodies[i], bodies[0])
		}
	}
}

// TestRequestMemoSharedConcurrently: requests of one text share its
// parsed program and constraints, which the optimizer, lint and the
// engine only read; -race holds them to that, and every body agrees.
func TestRequestMemoSharedConcurrently(t *testing.T) {
	s, h := warmServer(t, Config{}, 16)
	optimize := `{"program": ` + jsonString(serverTestProgram) + `, "ics": ` + jsonString(serverTestICs) + `}`
	query := `{"program": ` + jsonString(serverTestProgram) + `, "ics": ` + jsonString(serverTestICs) + `, "dataset": "d"}`
	const workers, rounds = 6, 5
	bodies := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, r := range []struct{ path, body string }{{"/v1/optimize", optimize}, {"/v1/query", query}} {
					code, body := serveBody(h, http.MethodPost, r.path, r.body)
					if code != http.StatusOK {
						t.Errorf("%s: %d %s", r.path, code, body)
					}
					bodies[w] = append(bodies[w], luckFields.ReplaceAllString(body, "$1"))
				}
			}
		}()
	}
	wg.Wait()
	for w := range bodies {
		for i, body := range bodies[w] {
			if body != bodies[0][i%2] {
				t.Fatalf("worker %d, request %d answered\n%s\nwant\n%s", w, i, body, bodies[0][i%2])
			}
		}
	}
	if hits := s.metrics.RequestMemoHits.Load(); hits < 2*workers*rounds-2*workers {
		t.Fatalf("%d request-memo hits of %d requests", hits, 2*workers*rounds)
	}
}
