package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer serves New(cfg) over HTTP. slots, when given, is the
// number of admission slots in place of 2×GOMAXPROCS.
func newTestServer(t *testing.T, cfg Config, slots ...int) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := New(cfg)
	if len(slots) > 0 {
		s.sem = make(chan struct{}, slots[0])
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %s %s → %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

const serverTestFacts = `
	step(1, 2). step(2, 3). step(3, 4). step(2, 5). step(5, 4).
	startPoint(1). startPoint(2).
	endPoint(4). endPoint(5).
`

const serverTestProgram = `
	path(X, Y) :- step(X, Y).
	path(X, Y) :- step(X, Z), path(Z, Y).
	goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
	?- goodPath.
`

const serverTestICs = `:- startPoint(X), endPoint(Y), Y <= X.`

func registerDataset(t *testing.T, base, name, facts string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/datasets/"+name, strings.NewReader(facts))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("dataset registration: %d %s", resp.StatusCode, b)
	}
}

func TestServerEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "quickstart", serverTestFacts)

	// Dataset is visible.
	var infos []DatasetInfo
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &infos); code != http.StatusOK {
		t.Fatalf("list datasets: %d", code)
	}
	if len(infos) != 1 || infos[0].Name != "quickstart" || infos[0].Facts != 9 {
		t.Fatalf("dataset list = %+v", infos)
	}

	// First optimized query: cache miss.
	var r1 queryResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		ICs:     serverTestICs,
		Dataset: "quickstart",
	}, &r1)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	if r1.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	wantAnswers := []string{"(1, 4)", "(1, 5)", "(2, 4)", "(2, 5)"}
	if !reflect.DeepEqual(r1.Answers, wantAnswers) {
		t.Fatalf("answers = %v, want %v", r1.Answers, wantAnswers)
	}
	if r1.Stats.Rounds == 0 || r1.Stats.TuplesDerived == 0 {
		t.Fatalf("stats not populated: %+v", r1.Stats)
	}

	// Second identical query: cache hit, identical answers.
	var r2 queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		ICs:     serverTestICs,
		Dataset: "quickstart",
	}, &r2); code != http.StatusOK {
		t.Fatalf("second query: %d %s", code, raw)
	}
	if !r2.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	if !reflect.DeepEqual(r2.Answers, r1.Answers) {
		t.Fatalf("cached answers diverge: %v vs %v", r2.Answers, r1.Answers)
	}
	if r2.Stats != r1.Stats {
		t.Fatalf("cached stats diverge: %+v vs %+v", r2.Stats, r1.Stats)
	}

	// Unoptimized evaluation agrees on answers (differential check).
	noOpt := false
	var r3 queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program:  serverTestProgram,
		ICs:      serverTestICs,
		Dataset:  "quickstart",
		Optimize: &noOpt,
	}, &r3); code != http.StatusOK {
		t.Fatalf("unoptimized query: %d %s", code, raw)
	}
	if !reflect.DeepEqual(r3.Answers, r1.Answers) {
		t.Fatalf("optimized and unoptimized answers diverge: %v vs %v", r1.Answers, r3.Answers)
	}
	if hits := s.cache.Stats().Hits; hits == 0 {
		t.Fatal("metrics report zero cache hits")
	}
}

func TestServerConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{}, 32)
	registerDataset(t, ts.URL, "d", serverTestFacts)

	const n = 12
	responses := make([]queryResponse, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = doJSONNoFatal(ts.URL+"/v1/query", queryRequest{
				Program: serverTestProgram,
				ICs:     serverTestICs,
				Dataset: "d",
			}, &responses[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !reflect.DeepEqual(responses[i].Answers, responses[0].Answers) {
			t.Fatalf("request %d: answers diverge: %v vs %v", i, responses[i].Answers, responses[0].Answers)
		}
	}
	// One prepared query, compiled exactly once across all n requests.
	if st := s.cache.Stats(); st.Size != 1 || st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("cache %+v, want one entry, one miss and %d hits", st, n-1)
	}
}

// doJSONNoFatal is doJSON for use inside goroutines (no *testing.T).
func doJSONNoFatal(url string, body any, out any) (int, []byte) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		_ = json.Unmarshal(raw, out)
	}
	return resp.StatusCode, raw
}

func TestServerAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{}, 2)
	registerDataset(t, ts.URL, "d", serverTestFacts)

	// Occupy both slots directly; the next request must 429 fast.
	rel1, ok := s.admit()
	if !ok {
		t.Fatal("first admit failed")
	}
	rel2, ok := s.admit()
	if !ok {
		t.Fatal("second admit failed")
	}
	start := time.Now()
	var eb errorBody
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		Dataset: "d",
	}, &eb)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", code)
	}
	if eb.Code != "overloaded" {
		t.Fatalf("error code = %q, want overloaded", eb.Code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("429 took %v; admission rejection must be fast", elapsed)
	}
	if got := s.metrics.AdmissionRejections.Load(); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
	rel1()
	rel2()

	// Slots released: the same request now succeeds.
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		Dataset: "d",
	}, nil); code != http.StatusOK {
		t.Fatalf("post-release query: %d %s", code, raw)
	}
}

func TestServerQueryTimeout(t *testing.T) {
	// The 1ns default deadline has passed before the evaluation starts,
	// so the answer does not hang on how the host schedules a timer
	// against the fixpoint (TestEvalCtxDeadline in internal/eval stops a
	// fixpoint at a deadline mid-round).
	s, ts := newTestServer(t, Config{DefaultTimeout: time.Nanosecond})
	var facts strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&facts, "e(%d, %d).\n", i, i+1)
	}
	registerDataset(t, ts.URL, "chain", facts.String())

	var eb errorBody
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n?- p.",
		Dataset: "chain",
	}, &eb)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", code, eb)
	}
	if eb.Code != "timeout" {
		t.Fatalf("error code = %q, want timeout", eb.Code)
	}
	if got := s.metrics.QueryTimeouts.Load(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

func TestServerBudgetExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var facts strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&facts, "e(%d, %d).\n", i, i+1)
	}
	registerDataset(t, ts.URL, "chain", facts.String())

	var eb errorBody
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program:   "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n?- p.",
		Dataset:   "chain",
		MaxTuples: 10,
	}, &eb)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%+v), want 422", code, eb)
	}
	if eb.Code != "budget_exceeded" {
		t.Fatalf("error code = %q, want budget_exceeded", eb.Code)
	}
	if got := s.metrics.QueryBudgets.Load(); got != 1 {
		t.Fatalf("budget counter = %d, want 1", got)
	}
}

// TestServerRetiredWorkersField: "workers" was a /v1/query field until
// the evaluator stopped running a pool. A client that still sends it
// gets a 200 and the answers it would get without — the decoder ignores
// fields the request type does not have.
func TestServerRetiredWorkersField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)
	var plain, retired queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query",
		map[string]any{"program": serverTestProgram, "dataset": "d"}, &plain); code != http.StatusOK {
		t.Fatalf("status = %d %s", code, raw)
	}
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query",
		map[string]any{"program": serverTestProgram, "dataset": "d", "workers": 4}, &retired); code != http.StatusOK {
		t.Fatalf("with \"workers\": status = %d %s", code, raw)
	}
	if len(plain.Answers) == 0 || !reflect.DeepEqual(retired.Answers, plain.Answers) || retired.Stats != plain.Stats {
		t.Fatalf("answers or stats differ with the retired field:\n%+v\nvs\n%+v", retired, plain)
	}
}

// TestServerJoinOrderKnob: "join_order" was a /v1/query field until the
// engine kept one join order. Every value a client may still send — a
// former policy name or one that never was — gets a 200 with the
// answers and stats of the request without it, the response echoes no
// join_order, and /metrics exports no per-policy series.
func TestServerJoinOrderKnob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "g", serverTestFacts)
	var plain queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"program": serverTestProgram, "ics": serverTestICs, "dataset": "g",
	}, &plain); code != http.StatusOK {
		t.Fatalf("status = %d %s", code, raw)
	}
	for _, joinOrder := range []string{"", "greedy", "cost", "adaptive", "fastest"} {
		var got queryResponse
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"program": serverTestProgram, "ics": serverTestICs, "dataset": "g",
			"join_order": joinOrder,
		}, &got)
		if code != http.StatusOK {
			t.Fatalf("join_order=%q: status = %d %s", joinOrder, code, raw)
		}
		if len(plain.Answers) == 0 || !reflect.DeepEqual(got.Answers, plain.Answers) || got.Stats != plain.Stats {
			t.Fatalf("answers or stats differ with join_order=%q:\n%+v\nvs\n%+v", joinOrder, got, plain)
		}
		if strings.Contains(string(raw), "join_order") {
			t.Fatalf("join_order=%q: the response echoes join_order: %s", joinOrder, raw)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if strings.Contains(string(body), "sqod_eval_policy_total") {
		t.Fatalf("metrics still export the per-policy series:\n%s", body)
	}
}

func TestServerInlineFactsDoNotMutateDataset(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)

	// Query with extra inline facts that add a new answer.
	var r1 queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		Dataset: "d",
		Facts:   "startPoint(3).",
	}, &r1); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	// The same query without inline facts must not see them.
	var r2 queryResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: serverTestProgram,
		Dataset: "d",
	}, &r2); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	if len(r1.Answers) <= len(r2.Answers) {
		t.Fatalf("inline facts had no effect: %d vs %d answers", len(r1.Answers), len(r2.Answers))
	}
	want := []string{"(1, 4)", "(1, 5)", "(2, 4)", "(2, 5)"}
	if !reflect.DeepEqual(r2.Answers, want) {
		t.Fatalf("dataset was mutated by inline facts: %v", r2.Answers)
	}
}

func TestServerOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var r1, r2 optimizeResponse
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeRequest{
		Program: serverTestProgram, ICs: serverTestICs,
	}, &r1); code != http.StatusOK {
		t.Fatalf("optimize: %d %s", code, raw)
	}
	if r1.CacheHit || !r1.Satisfiable || r1.Program == "" || r1.Explain == "" {
		t.Fatalf("bad first response: %+v", r1)
	}
	if !strings.Contains(r1.Program, "?- goodPath.") {
		t.Fatalf("rewritten program lacks query declaration:\n%s", r1.Program)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeRequest{
		Program: serverTestProgram, ICs: serverTestICs,
	}, &r2); code != http.StatusOK {
		t.Fatal("second optimize failed")
	}
	if !r2.CacheHit {
		t.Fatal("second identical optimize missed the cache")
	}
	if r2.Program != r1.Program || r2.Explain != r1.Explain {
		t.Fatal("cached optimize output diverges from fresh output")
	}

	// Another constant of the same binding pattern shares the outcome and
	// gets its own goal back.
	var p1, p2 optimizeResponse
	for _, c := range []struct {
		goal string
		out  *optimizeResponse
		hit  bool
	}{{"path(1, Y)", &p1, false}, {"path(2, Y)", &p2, true}} {
		if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeRequest{
			Program: "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- " + c.goal + ".",
			ICs:     ":- step(X, Y), Y <= X.",
		}, c.out); code != http.StatusOK {
			t.Fatalf("optimize %s: %d %s", c.goal, code, raw)
		}
		if c.out.CacheHit != c.hit || !strings.HasSuffix(c.out.Program, "?- "+c.goal+".\n") {
			t.Fatalf("optimize %s: cache_hit %t, program\n%s", c.goal, c.out.CacheHit, c.out.Program)
		}
	}
	if strings.TrimSuffix(p1.Program, "?- path(1, Y).\n") != strings.TrimSuffix(p2.Program, "?- path(2, Y).\n") || p1.Explain != p2.Explain {
		t.Fatalf("the shared outcome differs beyond the goal:\n%s\nvs\n%s", p1.Program, p2.Program)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)
	for i := 0; i < 2; i++ {
		if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
			Program: serverTestProgram, ICs: serverTestICs, Dataset: "d",
		}, nil); code != http.StatusOK {
			t.Fatalf("query: %d %s", code, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"sqod_cache_hits_total 1",
		"sqod_cache_misses_total 1",
		"sqod_datasets 1",
		"sqod_eval_rounds_total",
		"sqod_tuples_derived_total",
		`sqod_requests_total{endpoint="query",code="200"} 2`,
		`sqod_request_seconds_bucket{endpoint="query",le="+Inf"} 2`,
		"sqod_inflight_evals 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Healthz while we're here.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hr.StatusCode)
	}
}
