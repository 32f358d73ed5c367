package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

var updateContract = flag.Bool("update", false, "rewrite testdata/contract.golden")

// contractEnv names the server a contract row runs against. Every one
// holds the same fixtures: dataset "d" (serverTestFacts) with the
// optimized view "v", and dataset "chain", a 400-edge chain.
type contractEnv int

const (
	envPlain      contractEnv = iota
	envFull                   // one admission slot, and it taken
	envClosed                 // durable, its store closed after the fixtures
	envNanoTimout             // DefaultTimeout 1ns
	envCapped                 // MaxTuples 1000
)

const chainProgram = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n?- p."

// contractServer boots a server for env with the fixtures in place.
func contractServer(t *testing.T, env contractEnv) (*Server, string) {
	t.Helper()
	cfg, slots := Config{}, []int(nil)
	var st *store.Store
	switch env {
	case envFull:
		slots = []int{1}
	case envClosed:
		var rec *store.Recovered
		var err error
		if st, rec, err = store.Open(t.TempDir(), store.Options{}); err != nil {
			t.Fatal(err)
		}
		cfg.Store, cfg.Recovered = st, rec
	case envNanoTimout:
		cfg.DefaultTimeout = time.Nanosecond
	case envCapped:
		cfg.MaxTuples = 1000
	}
	s, ts := newTestServer(t, cfg, slots...)
	registerDataset(t, ts.URL, "d", serverTestFacts)
	var chain strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&chain, "e(%d, %d).\n", i, i+1)
	}
	registerDataset(t, ts.URL, "chain", chain.String())
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/views/v", viewRequest{
		Program: serverTestProgram, ICs: serverTestICs, TimeoutMS: 60_000,
	}, nil); code != http.StatusOK {
		t.Fatalf("fixture view: %d %s", code, raw)
	}
	switch env {
	case envFull:
		s.sem <- struct{}{}
		t.Cleanup(func() { <-s.sem })
	case envClosed:
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return s, ts.URL
}

// TestServerErrors pins every endpoint's error answers: the status, the
// body, and what each answer ticks of sqod_query_timeouts_total,
// sqod_query_budget_exceeded_total and sqod_admission_rejections_total.
// The bodies are testdata/contract.golden, rewritten with -update. Rows
// are named endpoint/case, but for /v1/query's, which are named by case
// alone.
func TestServerErrors(t *testing.T) {
	const (
		q    = "/v1/query"
		opt  = "/v1/optimize"
		lint = "/v1/lint"
	)
	prog, ics := jsonString(serverTestProgram), jsonString(serverTestICs)
	query := func(extra string) string { return `{"program": ` + prog + `, "dataset": "d"` + extra + `}` }
	// An IDB predicate in an ic, which the optimizer refuses; and a rule
	// negating an IDB predicate, which evaluation refuses.
	idbIC := `, "ics": ":- path(X, Y)."`
	negIDB := jsonString("p(X) :- e(X, Y).\nq(X) :- e(X, Y), !p(X).\n?- q.")
	view := func(program, extra string) string { return `{"program": ` + program + extra + `}` }
	chainQuery := `{"program": ` + jsonString(chainProgram) + `, "dataset": "chain"`

	rows := []struct {
		name         string
		env          contractEnv
		method, path string
		body         string
		status       int
		code         string
		// Deltas of the timeout, budget and admission-rejection counters.
		timeouts, budgets, rejections int64
	}{
		{"bad json", envPlain, "POST", q, `{`, 400, "bad_request", 0, 0, 0},
		{"no facts source", envPlain, "POST", q, `{"program": ` + prog + `}`, 400, "bad_request", 0, 0, 0},
		{"multi-dataset body", envPlain, "POST", q, `{"program": ` + prog + `, "datasets": ["d"]}`, 400, "bad_request", 0, 0, 0},
		{"no query decl", envPlain, "POST", q, `{"program": "p(X, Y) :- e(X, Y).", "dataset": "d"}`, 400, "bad_request", 0, 0, 0},
		{"parse error", envPlain, "POST", q, `{"program": "p(X :-", "dataset": "d"}`, 400, "parse_error", 0, 0, 0},
		{"bad ics", envPlain, "POST", q, query(`, "ics": ":- nope("`), 400, "parse_error", 0, 0, 0},
		{"facts parse", envPlain, "POST", q, query(`, "facts": "step(1"`), 400, "parse_error", 0, 0, 0},
		{"facts arity", envPlain, "POST", q, query(`, "facts": "step(3)."`), 400, "arity_mismatch", 0, 0, 0},
		{"unknown dataset", envPlain, "POST", q, `{"program": ` + prog + `, "dataset": "nope"}`, 404, "unknown_dataset", 0, 0, 0},
		{"budget", envPlain, "POST", q, chainQuery + `, "max_tuples": 10}`, 422, "budget_exceeded", 0, 1, 0},
		// max_tuples lowers the server's budget, never raises it.
		{"budget above cap", envCapped, "POST", q, chainQuery + `, "max_tuples": 1000000}`, 422, "budget_exceeded", 0, 1, 0},
		{"eval error", envPlain, "POST", q, `{"program": ` + negIDB + `, "dataset": "chain", "optimize": false}`, 422, "eval_error", 0, 0, 0},
		{"optimize error", envPlain, "POST", q, query(idbIC), 422, "optimize_error", 0, 0, 0},
		{"overloaded", envFull, "POST", q, query(""), 429, "overloaded", 0, 0, 1},
		// The 1ns default deadline has passed before the evaluation
		// starts, so the answer does not hang on how the host schedules
		// a 1ms timer against the fixpoint (TestEvalCtxDeadline in
		// internal/eval stops a fixpoint at a deadline mid-round).
		{"timeout", envNanoTimout, "POST", q, chainQuery + `, "optimize": false}`, 504, "timeout", 1, 0, 0},

		{"optimize/bad json", envPlain, "POST", opt, `{`, 400, "bad_request", 0, 0, 0},
		{"optimize/no query decl", envPlain, "POST", opt, `{"program": "p(X, Y) :- e(X, Y)."}`, 400, "bad_request", 0, 0, 0},
		{"optimize/program parse", envPlain, "POST", opt, `{"program": "p(X :-"}`, 400, "parse_error", 0, 0, 0},
		{"optimize/ics parse", envPlain, "POST", opt, `{"program": ` + prog + `, "ics": ":- nope("}`, 400, "parse_error", 0, 0, 0},
		{"optimize/optimize error", envPlain, "POST", opt, `{"program": ` + prog + idbIC + `}`, 422, "optimize_error", 0, 0, 0},
		{"optimize/overloaded", envFull, "POST", opt, `{"program": ` + prog + `}`, 429, "overloaded", 0, 0, 1},
		// A cache miss under a 1ns default deadline: the rewrite does not
		// start.
		{"optimize/timeout", envNanoTimout, "POST", opt, `{"program": ` + jsonString(chainProgram) + `}`, 504, "timeout", 1, 0, 0},

		{"lint/bad json", envPlain, "POST", lint, `{`, 400, "bad_request", 0, 0, 0},
		{"lint/program parse", envPlain, "POST", lint, `{"program": "p(X :-"}`, 400, "parse_error", 0, 0, 0},
		{"lint/ics parse", envPlain, "POST", lint, `{"program": ` + prog + `, "ics": ":- nope("}`, 400, "parse_error", 0, 0, 0},
		{"lint/facts parse", envPlain, "POST", lint, `{"program": ` + prog + `, "facts": "step(1"}`, 400, "parse_error", 0, 0, 0},
		{"lint/overloaded", envFull, "POST", lint, `{"program": ` + prog + `}`, 429, "overloaded", 0, 0, 1},

		{"dataset put/parse", envPlain, "PUT", "/v1/datasets/x", "step(1", 400, "parse_error", 0, 0, 0},
		{"dataset put/arity", envPlain, "PUT", "/v1/datasets/x", "step(1, 2). step(1).", 400, "arity_mismatch", 0, 0, 0},
		{"dataset put/replace overloaded", envFull, "PUT", "/v1/datasets/d", "step(1, 2).", 429, "overloaded", 0, 0, 1},
		{"dataset put/create store", envClosed, "PUT", "/v1/datasets/x", "step(1, 2).", 500, "store_error", 0, 0, 0},
		{"dataset put/replace store", envClosed, "PUT", "/v1/datasets/d", "step(1, 2).", 500, "store_error", 0, 0, 0},
		{"dataset post/parse", envPlain, "POST", "/v1/datasets/x", "step(1", 400, "parse_error", 0, 0, 0},
		{"dataset post/arity", envPlain, "POST", "/v1/datasets/x", "step(1). step(1, 2).", 400, "arity_mismatch", 0, 0, 0},
		{"dataset post/exists", envPlain, "POST", "/v1/datasets/d", "step(1, 2).", 409, "dataset_exists", 0, 0, 0},
		{"dataset post/store", envClosed, "POST", "/v1/datasets/x", "step(1, 2).", 500, "store_error", 0, 0, 0},
		{"dataset delete/unknown dataset", envPlain, "DELETE", "/v1/datasets/nope", "", 404, "unknown_dataset", 0, 0, 0},
		{"dataset delete/store", envClosed, "DELETE", "/v1/datasets/d", "", 500, "store_error", 0, 0, 0},

		{"facts add/parse", envPlain, "POST", "/v1/datasets/d/facts", "step(1", 400, "parse_error", 0, 0, 0},
		{"facts add/arity", envPlain, "POST", "/v1/datasets/d/facts", "step(3).", 400, "arity_mismatch", 0, 0, 0},
		{"facts add/unknown dataset", envPlain, "POST", "/v1/datasets/nope/facts", "step(1, 2).", 404, "unknown_dataset", 0, 0, 0},
		{"facts add/overloaded", envFull, "POST", "/v1/datasets/d/facts", "step(7, 8).", 429, "overloaded", 0, 0, 1},
		{"facts add/store", envClosed, "POST", "/v1/datasets/d/facts", "step(7, 8).", 500, "store_error", 0, 0, 0},
		{"facts delete/parse", envPlain, "DELETE", "/v1/datasets/d/facts", "step(1", 400, "parse_error", 0, 0, 0},
		{"facts delete/unknown dataset", envPlain, "DELETE", "/v1/datasets/nope/facts", "step(1, 2).", 404, "unknown_dataset", 0, 0, 0},
		{"facts delete/overloaded", envFull, "DELETE", "/v1/datasets/d/facts", "step(1, 2).", 429, "overloaded", 0, 0, 1},
		{"facts delete/store", envClosed, "DELETE", "/v1/datasets/d/facts", "step(1, 2).", 500, "store_error", 0, 0, 0},

		{"view create/bad json", envPlain, "POST", "/v1/datasets/d/views/w", `{`, 400, "bad_request", 0, 0, 0},
		{"view create/no query decl", envPlain, "POST", "/v1/datasets/d/views/w", `{"program": "p(X, Y) :- e(X, Y)."}`, 400, "bad_request", 0, 0, 0},
		{"view create/program parse", envPlain, "POST", "/v1/datasets/d/views/w", `{"program": "p(X :-"}`, 400, "parse_error", 0, 0, 0},
		{"view create/unknown dataset", envPlain, "POST", "/v1/datasets/nope/views/w", view(prog, ""), 404, "unknown_dataset", 0, 0, 0},
		{"view create/exists", envPlain, "POST", "/v1/datasets/d/views/v", view(prog, ""), 409, "view_exists", 0, 0, 0},
		{"view create/budget", envPlain, "POST", "/v1/datasets/chain/views/w", view(jsonString(chainProgram), `, "max_tuples": 10`), 422, "budget_exceeded", 0, 1, 0},
		{"view create/budget above cap", envCapped, "POST", "/v1/datasets/chain/views/w", view(jsonString(chainProgram), `, "max_tuples": 1000000`), 422, "budget_exceeded", 0, 1, 0},
		{"view create/eval error", envPlain, "POST", "/v1/datasets/chain/views/w", view(negIDB, `, "optimize": false`), 422, "eval_error", 0, 0, 0},
		{"view create/optimize error", envPlain, "POST", "/v1/datasets/d/views/w", view(prog, idbIC), 422, "optimize_error", 0, 0, 0},
		{"view create/overloaded", envFull, "POST", "/v1/datasets/d/views/w", view(prog, ""), 429, "overloaded", 0, 0, 1},
		{"view create/store", envClosed, "POST", "/v1/datasets/d/views/w", view(prog, `, "ics": `+ics), 500, "store_error", 0, 0, 0},
		// Under the 1ns default deadline, like "timeout".
		{"view create/timeout", envNanoTimout, "POST", "/v1/datasets/chain/views/w", view(jsonString(chainProgram), ""), 504, "timeout", 1, 0, 0},
		{"view get/unknown dataset", envPlain, "GET", "/v1/datasets/nope/views/v", "", 404, "unknown_dataset", 0, 0, 0},
		{"view get/unknown view", envPlain, "GET", "/v1/datasets/d/views/nope", "", 404, "unknown_view", 0, 0, 0},
		{"view delete/unknown dataset", envPlain, "DELETE", "/v1/datasets/nope/views/v", "", 404, "unknown_dataset", 0, 0, 0},
		{"view delete/unknown view", envPlain, "DELETE", "/v1/datasets/d/views/nope", "", 404, "unknown_view", 0, 0, 0},
		{"view delete/store", envClosed, "DELETE", "/v1/datasets/d/views/v", "", 500, "store_error", 0, 0, 0},
	}

	var golden bytes.Buffer
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, base := contractServer(t, row.env)
			m := s.metrics
			t0, b0, r0 := m.QueryTimeouts.Load(), m.QueryBudgets.Load(), m.AdmissionRejections.Load()
			code, raw := doRaw(t, row.method, base+row.path, row.body, nil)
			fmt.Fprintf(&golden, "%s\t%d\t%s", row.name, code, raw)
			var eb errorBody
			if err := json.Unmarshal(raw, &eb); code != row.status || err != nil || eb.Code != row.code {
				t.Errorf("%d %s, want %d %s", code, raw, row.status, row.code)
			}
			if d := [3]int64{m.QueryTimeouts.Load() - t0, m.QueryBudgets.Load() - b0, m.AdmissionRejections.Load() - r0}; d != [3]int64{row.timeouts, row.budgets, row.rejections} {
				t.Errorf("timeouts, budgets, rejections ticked %v, want %v", d, [3]int64{row.timeouts, row.budgets, row.rejections})
			}
		})
	}

	path := filepath.Join("testdata", "contract.golden")
	if *updateContract {
		if err := os.WriteFile(path, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("bodies differ from %s at line %d:\ngot  %q\nwant %q", path, i+1, at(gl, i), at(wl, i))
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<none>"
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
