package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// requireArityMismatch asserts a 400 arity_mismatch whose message names
// the predicate and both arities.
func requireArityMismatch(t *testing.T, what string, code int, raw []byte) {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); code != http.StatusBadRequest || err != nil || eb.Code != "arity_mismatch" {
		t.Fatalf("%s: %d %s, want 400 arity_mismatch", what, code, raw)
	}
	for _, want := range []string{"step", "arity 1", "arity 2"} {
		if !strings.Contains(eb.Error, want) {
			t.Fatalf("%s: message %q does not mention %q", what, eb.Error, want)
		}
	}
}

// TestArityMismatchRejected: a predicate used at two arities — within a
// batch or against the dataset — used to panic in Relation.Add under the
// registry or dataset lock, leaving every later dataset request blocked.
// It is a 400 now, and the daemon keeps answering.
func TestArityMismatchRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, raw := doRaw(t, http.MethodPut, ts.URL+"/v1/datasets/x", "step(1,2). step(1).", nil)
	requireArityMismatch(t, "mixed-arity PUT", code, raw)
	code, raw = doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/x", "step(1). step(1,2).", nil)
	requireArityMismatch(t, "mixed-arity POST", code, raw)

	registerDataset(t, ts.URL, "y", "step(1,2). step(2,3).")
	code, raw = doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/y/facts", "step(3).", nil)
	requireArityMismatch(t, "facts POST against step/2", code, raw)
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"program": "q(X) :- step(X). ?- q.", "dataset": "y", "facts": "step(3).",
	}, nil)
	requireArityMismatch(t, "inline query facts against step/2", code, raw)

	var infos []DatasetInfo
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &infos)
	if len(infos) != 1 || infos[0].Name != "y" || infos[0].Predicates["step"] != 2 {
		t.Fatalf("datasets after the rejected requests = %+v", infos)
	}
	// A replacement may change a predicate's arity: the old facts leave
	// before the new ones arrive.
	var up updateResponse
	if code, raw := doRaw(t, http.MethodPut, ts.URL+"/v1/datasets/y", "step(7).", &up); code != http.StatusOK ||
		up.FactsAdded != 1 || up.FactsRemoved != 2 {
		t.Fatalf("arity-changing PUT: %d %s", code, raw)
	}
}

// TestArityMismatchLeavesStoreClean: the rejected requests reach neither
// the WAL nor the registry, so a durable server restarted after them is
// ready and holds exactly what it held before. (The create record used
// to be appended before the panic, and every restart panicked replaying
// it.)
func TestArityMismatchLeavesStoreClean(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st, Recovered: rec})
	registerDataset(t, ts.URL, "good", "step(1,2). step(2,3).")
	code, raw := doRaw(t, http.MethodPut, ts.URL+"/v1/datasets/x", "step(1,2). step(1).", nil)
	requireArityMismatch(t, "mixed-arity PUT", code, raw)
	code, raw = doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/good/facts", "step(3).", nil)
	requireArityMismatch(t, "facts POST against step/2", code, raw)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	_, ts2 := newTestServer(t, Config{Store: st2, Recovered: rec2})
	if code, _ := doRaw(t, http.MethodGet, ts2.URL+"/readyz", "", nil); code != http.StatusOK {
		t.Fatalf("/readyz after restart = %d", code)
	}
	var infos []DatasetInfo
	doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets", nil, &infos)
	if len(infos) != 1 || infos[0].Name != "good" || infos[0].Facts != 2 || infos[0].Predicates["step"] != 2 {
		t.Fatalf("datasets after restart = %+v", infos)
	}
}

// TestPanicContained: a panicking handler answers 500 internal_error,
// is counted, logs the stack, and still reaches the request metrics and
// the access log.
func TestPanicContained(t *testing.T) {
	var logs bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	h := s.instrument("boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/boom", nil))

	var eb errorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); rr.Code != http.StatusInternalServerError || err != nil || eb.Code != "internal_error" {
		t.Fatalf("response = %d %s, want 500 internal_error", rr.Code, rr.Body)
	}
	mr := httptest.NewRecorder()
	s.metrics.ServeHTTP(mr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"sqod_panics_total 1", `sqod_requests_total{endpoint="boom",code="500"} 1`} {
		if !strings.Contains(mr.Body.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	for _, want := range []string{`msg="panic in handler"`, "panic=kaboom", "robust_test.go", "msg=request", "status=500"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs.String())
		}
	}
}

// TestSuffixedVariableNamesKeepSlots: variables already spelled like a
// renaming's output (X_1) once made the optimizer bind a variable to
// itself and spin forever, so each such /v1/optimize request held its
// admission slot for as long as its client waited, and sqod answered
// 429 to everything else. Every such request must now finish at once,
// and an ordinary request after them must be served.
func TestSuffixedVariableNamesKeepSlots(t *testing.T) {
	const inflight = 2
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	s.sem = make(chan struct{}, inflight)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Unlike httptest.Server's, this Close does not wait for running
	// handlers, so a handler that never returns fails the test instead
	// of hanging it.
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	post := func(body any) (int, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		client := &http.Client{Timeout: 3 * time.Second}
		resp, err := client.Post("http://"+ln.Addr().String()+"/v1/optimize", "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2*inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Any status will do (429 included, while the slots are
			// busy); the request has to finish.
			post(optimizeRequest{
				Program: "p(X_1, Y_1) :- e(X_1, Y_1), q(Y_1).\n?- p.",
				ICs:     ":- e(X, Y), Y < X.",
			})
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("optimize requests with suffixed variable names still running after 1s")
	}
	code, err := post(optimizeRequest{Program: serverTestProgram, ICs: serverTestICs})
	if err != nil || code != http.StatusOK {
		t.Fatalf("ordinary optimize after them: %d, %v; want 200", code, err)
	}
}

// TestBodyLimit: a body one byte over 8 MiB answers 400 bad_request on
// /v1/query and on a durable PUT, which registers and logs nothing, and
// the server goes on serving: the next PUT, of exactly 8 MiB, succeeds.
// The bodies are padded with whitespace, so only the limit rejects them.
func TestBodyLimit(t *testing.T) {
	st, rec, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Store: st, Recovered: rec})
	pad := func(n int, head, tail string) string {
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	const limit = 8 << 20
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/query", pad(limit+1, `{"program": "q(X) :- e(X).\n?- q.", "facts": "e(1)."`, "}")},
		{http.MethodPut, "/v1/datasets/d", pad(limit+1, "e(1).", "")},
	} {
		code, raw := doRaw(t, c.method, ts.URL+c.path, c.body, nil)
		var eb errorBody
		if code != http.StatusBadRequest || json.Unmarshal(raw, &eb) != nil || eb.Code != "bad_request" {
			t.Fatalf("%s %s with a %d-byte body = %d %s, want 400 bad_request", c.method, c.path, len(c.body), code, raw)
		}
		var infos []DatasetInfo
		if code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &infos); code != http.StatusOK || len(infos) != 0 {
			t.Fatalf("datasets after an oversized %s %s = %d %s", c.method, c.path, code, raw)
		}
		if n := st.Counters().Appends; n != 0 {
			t.Fatalf("oversized %s %s appended %d WAL records", c.method, c.path, n)
		}
	}
	registerDataset(t, ts.URL, "d", pad(limit, "e(1).", ""))
}
