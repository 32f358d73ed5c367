package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// The serving path's unit cost: one POST /v1/query through
// Server.Handler() into a recorder — decode, cached compile, fixpoint,
// order, render, write — on the benchmark's dataset (40 chains of 50
// edges), for a whole relation (?- path., 51,000 answers) and for a
// point query at the head of a chain (50 answers).

const (
	respChains   = 40
	respChainLen = 50
	respTC       = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y).\n"
	respICs      = ":- edge(X, Y), Y <= X.\n"
)

// responseFixture returns a handler over the chain dataset and the two
// request bodies, with the rewrite cache and the interned base warm.
func responseFixture(tb testing.TB) (h http.Handler, full, point string) {
	tb.Helper()
	var facts strings.Builder
	for c := 0; c < respChains; c++ {
		for i := 0; i < respChainLen; i++ {
			fmt.Fprintf(&facts, "edge(%d, %d).\n", c*100+i, c*100+i+1)
		}
	}
	h = New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/datasets/g", strings.NewReader(facts.String())))
	if rec.Code != http.StatusOK {
		tb.Fatalf("dataset put: %d %s", rec.Code, rec.Body)
	}
	full, point = queryBody("?- path.\n"), queryBody("?- path(0, Y).\n")
	for _, b := range []string{full, point} {
		postQuery(tb, h, b)
	}
	return h, full, point
}

// queryBody is the request body of the fixture's program at goal.
func queryBody(goal string) string {
	return fmt.Sprintf(`{"program": %q, "ics": %q, "dataset": "g"}`, respTC+goal, respICs)
}

// postQuery serves one query body and returns the recorded response.
func postQuery(tb testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	return rec
}

func BenchmarkQueryResponse(b *testing.B) {
	h, full, point := responseFixture(b)
	for _, c := range []struct {
		name    string
		body    string
		answers int
	}{
		{"answers=50", point, 50},
		{"answers=51000", full, 51000},
	} {
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := postQuery(b, h, c.body); i == 0 && strings.Count(rec.Body.String(), "\n    \"(") != c.answers {
					b.Fatalf("want %d answers, body starts %.200s", c.answers, rec.Body)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(c.answers)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/answer")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/answer")
		})
	}
}

// TestQueryResponseAllocationGuard bounds what one response allocates:
// a 51,000-answer body used to take 358,069 allocations and 27.4 MB (a
// Tuple, a string and a sorted copy per answer, then encoding/json over
// the lot) and takes a few hundred now; the 50-answer point response
// must not pay for that (recorder and request included). Both bounds
// lock in the one-root renaming fold — the query relation is its root's
// rows, not a second copy of them: 9.66 → 6.5 MB for the whole relation
// and 725 → 594 allocations for the point query, which no longer adorns,
// seeds and plans the renaming rule as a predicate of its own. A point
// query runs the query prepared for its binding pattern, whatever its
// constant: 598 → 517 allocations for a repeated one (one cache key, no
// fold or magic rewrite) and 1,822 → 518 for a constant no request used
// before, which used to be a cold compile. The prepared query keeps its
// plans for the dataset's base and its fixpoint addresses relations and
// round deltas by dense id: 517 → 239 and 518 → 240, bounded at 260 each
// (under -race, whose sync.Pool drops add ~65 allocations, at 335).
//
// Since the base keeps its prepared queries' answers, a repeated body
// over one snapshot is a memo hit: no fixpoint, and the Result's
// ordering already published. The "50 answers" row is one: 213 → 132
// allocations (143–146 under -race). Its text is a request-memo hit as
// well, so it reads no program or ics and hashes no canonical program:
// 130 → 68 (73–75 under -race). Its answers array is the one its result
// kept when first written, the request is scanned, not decoded by
// reflection, its envelope is appended and its log line takes typed
// attributes: 68 → 38–39 (45–49 under -race), bounded at 43 (55). Of
// these, httptest's request and recorder take 14 with a handler that
// writes nothing, and 21 with one that writes this response's two
// headers and its 1,056 bytes. The "new constant" row is the miss path — it evaluates and fills the memo, 217
// (277–285 under -race), 222 with the request memo's hash and entry —
// and keeps 260 (335). The "51,000 answers" row
// is a hit too, so what it bounds is writing the answers out (≈ 2.1 MB);
// the "evaluated" row renames the goal's variables per request, so each
// one misses and evaluates and orders the whole relation. Its prepared
// query sizes the relation from the run before, and ordering takes its
// first-seen numbers from a table over the id space: 6.5 → 4.7 MB and
// 321 → 254 allocations (8.5 → 6.8 MB under -race), bounded at 5.75 MB
// (8 MB), the 8 MB (10 MB) bound's headroom over the measured bytes
// before. Each row checks through /metrics that its measured requests
// hit the memo, or that none does.
func TestQueryResponseAllocationGuard(t *testing.T) {
	h, full, point := responseFixture(t)
	// The head of every other chain: a point query with 50 answers and a
	// constant no earlier request used.
	var fresh []string
	for c := 1; c < respChains; c++ {
		fresh = append(fresh, queryBody(fmt.Sprintf("?- path(%d, Y).\n", c*100)))
	}
	// The whole relation under variable names no request used before:
	// one binding pattern, so one prepared query, but a goal the memo
	// does not hold, so every request evaluates.
	renamed := 0
	evaluated := func() string {
		renamed++
		return queryBody(fmt.Sprintf("?- path(A%d, B%d).\n", renamed, renamed))
	}
	for _, c := range []struct {
		name                  string
		body                  func() string
		maxAllocs, raceAllocs float64
		maxBytes              uint64 // in a plain build
		raceBytes             uint64 // under -race, whose instrumentation allocates too
		hit                   bool   // every request is an answer-memo hit
	}{
		{"51,000 answers", func() string { return full }, 10000, 10000, 8 << 20, 10 << 20, true},
		{"51,000 answers, evaluated", evaluated, 10000, 10000, 23 << 18, 8 << 20, false},
		{"50 answers", func() string { return point }, 43, 55, 1 << 20, 1 << 20, true},
		{"50 answers, new constant each request", func() string { b := fresh[0]; fresh = fresh[1:]; return b }, 260, 335, 1 << 20, 1 << 20, false},
	} {
		// Hits are counted from the second request on: the first, the
		// warm-up AllocsPerRun does not measure, may refill an entry an
		// earlier row's requests crowded out.
		requests, hits := 0, 0
		run := func() {
			postQuery(t, h, c.body())
			if requests++; requests == 1 {
				hits = memoHits(t, h)
			}
		}
		maxAllocs := c.maxAllocs
		if raceDetector {
			maxAllocs = c.raceAllocs
		}
		got := testing.AllocsPerRun(3, run)
		t.Logf("%s: %.0f allocations per request", c.name, got)
		if got > maxAllocs {
			t.Errorf("%s: %.0f allocations per request, want at most %.0f", c.name, got, maxAllocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		maxBytes := c.maxBytes
		if raceDetector {
			maxBytes = c.raceBytes
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes per request", c.name, bytes)
		if bytes > maxBytes {
			t.Errorf("%s: %d bytes per request, want at most %d", c.name, bytes, maxBytes)
		}
		want := 0
		if c.hit {
			want = requests - 1
		}
		if got := memoHits(t, h) - hits; got != want {
			t.Errorf("%s: %d of %d measured requests hit the answer memo, want %d", c.name, got, requests-1, want)
		}
	}
}

// memoHits reads sqod_answer_memo_hits_total from h's /metrics.
func memoHits(tb testing.TB, h http.Handler) int {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var n int
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if _, err := fmt.Sscanf(line, "sqod_answer_memo_hits_total %d", &n); err == nil {
			return n
		}
	}
	tb.Fatalf("/metrics lacks sqod_answer_memo_hits_total:\n%s", rec.Body)
	return 0
}
