package server

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// doRaw sends a non-JSON body (datalog source) and decodes the JSON
// response into out.
func doRaw(t *testing.T, method, url, body string, out any) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
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
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %s %s → %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

func TestServerDatasetPostConflictAndDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// POST creates.
	var info DatasetInfo
	if code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/d", "e(1, 2).", &info); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, raw)
	}
	if info.Facts != 1 || info.LastModified.IsZero() {
		t.Fatalf("create info = %+v", info)
	}

	// Duplicate POST answers 409, not 500.
	var eb errorBody
	code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/d", "e(3, 4).", nil)
	if code != http.StatusConflict {
		t.Fatalf("duplicate POST: %d %s, want 409", code, raw)
	}
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != "dataset_exists" {
		t.Fatalf("duplicate POST body = %s (err %v)", raw, err)
	}
	// ... and did not clobber the dataset.
	var infos []DatasetInfo
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &infos)
	if len(infos) != 1 || infos[0].Facts != 1 || infos[0].Predicates["e"] != 1 {
		t.Fatalf("dataset list after 409 = %+v", infos)
	}

	// DELETE unregisters; a second DELETE 404s.
	if code, raw := doRaw(t, http.MethodDelete, ts.URL+"/v1/datasets/d", "", nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, raw)
	}
	if code, _ := doRaw(t, http.MethodDelete, ts.URL+"/v1/datasets/d", "", nil); code != http.StatusNotFound {
		t.Fatalf("second delete: %d, want 404", code)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &infos)
	if len(infos) != 0 {
		t.Fatalf("dataset list after delete = %+v", infos)
	}
}

func TestServerFactMutations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)

	query := func() []string {
		var r queryResponse
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
			Program: serverTestProgram, Dataset: "d",
		}, &r)
		if code != http.StatusOK {
			t.Fatalf("query: %d %s", code, raw)
		}
		return r.Answers
	}
	base := query()

	// Insert a new start point: more answers, counters move.
	var up updateResponse
	if code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/d/facts", "startPoint(3).", &up); code != http.StatusOK {
		t.Fatalf("facts add: %d %s", code, raw)
	}
	if up.FactsAdded != 1 || up.FactsRemoved != 0 || up.Dataset.Facts != 10 {
		t.Fatalf("add response = %+v", up)
	}
	if got := query(); len(got) <= len(base) {
		t.Fatalf("insert had no effect: %v vs %v", got, base)
	}

	// Retract it again (plus a fact that never existed — a no-op).
	if code, raw := doRaw(t, http.MethodDelete, ts.URL+"/v1/datasets/d/facts", "startPoint(3). startPoint(99).", &up); code != http.StatusOK {
		t.Fatalf("facts delete: %d %s", code, raw)
	}
	if up.FactsAdded != 0 || up.FactsRemoved != 1 || up.Dataset.Facts != 9 {
		t.Fatalf("delete response = %+v", up)
	}
	if got := query(); !reflect.DeepEqual(got, base) {
		t.Fatalf("retract did not restore answers: %v vs %v", got, base)
	}

	// Mutating an unknown dataset 404s.
	if code, _ := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/nope/facts", "e(1, 2).", nil); code != http.StatusNotFound {
		t.Fatalf("unknown dataset mutation: %d, want 404", code)
	}
}

const viewTestProgram = `
	path(X, Y) :- step(X, Y).
	path(X, Y) :- step(X, Z), path(Z, Y).
	?- path.
`

func TestServerMaterializedViewSurvivesUpdates(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", "step(1, 2). step(2, 3).")

	// Create a view (recursive program → DRed maintenance).
	noOpt := false
	var vr viewResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/views/paths", viewRequest{
		Program: viewTestProgram, Optimize: &noOpt,
	}, &vr)
	if code != http.StatusOK {
		t.Fatalf("view create: %d %s", code, raw)
	}
	want := []string{"(1, 2)", "(1, 3)", "(2, 3)"}
	if !reflect.DeepEqual(vr.Answers, want) {
		t.Fatalf("initial answers = %v, want %v", vr.Answers, want)
	}
	if vr.Stats.InitTuples == 0 {
		t.Fatalf("init stats not populated: %+v", vr.Stats)
	}

	// Duplicate view name answers 409.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/views/paths", viewRequest{
		Program: viewTestProgram, Optimize: &noOpt,
	}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate view: %d, want 409", code)
	}

	// Insert a fact: the view's answers extend incrementally and the
	// update response reports the per-view delta.
	var up updateResponse
	if code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/d/facts", "step(3, 4).", &up); code != http.StatusOK {
		t.Fatalf("facts add: %d %s", code, raw)
	}
	if len(up.Views) != 1 || up.Views[0].Name != "paths" || up.Views[0].Error != "" {
		t.Fatalf("update views = %+v", up.Views)
	}
	if up.Views[0].AnswersAdded != 3 || up.Views[0].AnswersRemoved != 0 {
		t.Fatalf("view delta = %+v, want 3 added", up.Views[0])
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/d/views/paths", nil, &vr); code != http.StatusOK {
		t.Fatalf("view get: %d %s", code, raw)
	}
	want = []string{"(1, 2)", "(1, 3)", "(1, 4)", "(2, 3)", "(2, 4)", "(3, 4)"}
	if !reflect.DeepEqual(vr.Answers, want) {
		t.Fatalf("post-insert answers = %v, want %v", vr.Answers, want)
	}
	if vr.Stats.Applies != 1 || vr.Stats.FullRebuilds != 0 {
		t.Fatalf("maintenance was not incremental: %+v", vr.Stats)
	}

	// Retract the middle edge: downstream reachability collapses.
	if code, raw := doRaw(t, http.MethodDelete, ts.URL+"/v1/datasets/d/facts", "step(2, 3).", &up); code != http.StatusOK {
		t.Fatalf("facts delete: %d %s", code, raw)
	}
	if up.Views[0].AnswersRemoved != 4 {
		t.Fatalf("view delta = %+v, want 4 removed", up.Views[0])
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/d/views/paths", nil, &vr)
	want = []string{"(1, 2)", "(3, 4)"}
	if !reflect.DeepEqual(vr.Answers, want) {
		t.Fatalf("post-retract answers = %v, want %v", vr.Answers, want)
	}

	// The view agrees with a from-scratch query on the mutated dataset.
	var qr queryResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: viewTestProgram, Dataset: "d", Optimize: &noOpt,
	}, &qr)
	if !reflect.DeepEqual(qr.Answers, vr.Answers) {
		t.Fatalf("view and query diverge: %v vs %v", vr.Answers, qr.Answers)
	}

	// PUT-replacing the dataset is diffed through the view too.
	var pr updateResponse
	if code, raw := doRaw(t, http.MethodPut, ts.URL+"/v1/datasets/d", "step(7, 8).", &pr); code != http.StatusOK {
		t.Fatalf("put replace: %d %s", code, raw)
	}
	if pr.FactsAdded != 1 || pr.FactsRemoved != 2 || len(pr.Views) != 1 {
		t.Fatalf("replace response = %+v", pr)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/d/views/paths", nil, &vr)
	if want = []string{"(7, 8)"}; !reflect.DeepEqual(vr.Answers, want) {
		t.Fatalf("post-replace answers = %v, want %v", vr.Answers, want)
	}

	// Listing shows the view and mutation metadata.
	var infos []DatasetInfo
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &infos)
	if len(infos) != 1 || !reflect.DeepEqual(infos[0].Views, []string{"paths"}) {
		t.Fatalf("dataset list = %+v", infos)
	}
	if infos[0].LastModified.IsZero() || time.Since(infos[0].LastModified) > time.Minute {
		t.Fatalf("last_modified not maintained: %v", infos[0].LastModified)
	}
	if g := s.metrics.Views.Load(); g != 1 {
		t.Fatalf("views gauge = %d, want 1", g)
	}

	// Drop the view; it is gone and the gauge returns to zero.
	if code, _ := doRaw(t, http.MethodDelete, ts.URL+"/v1/datasets/d/views/paths", "", nil); code != http.StatusOK {
		t.Fatal("view delete failed")
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/d/views/paths", nil, nil); code != http.StatusNotFound {
		t.Fatal("deleted view still answers")
	}
	if g := s.metrics.Views.Load(); g != 0 {
		t.Fatalf("views gauge = %d, want 0", g)
	}
}

// TestServerUpdateUnderRequestDeadline: a fact update runs under the
// request deadline, DefaultTimeout. With it already passed, the update
// still answers 200 — the facts change — while the view's maintenance
// reports the deadline, and the view repairs itself on the next read.
func TestServerUpdateUnderRequestDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultTimeout: time.Nanosecond})
	registerDataset(t, ts.URL, "d", "step(1, 2). step(2, 3).")
	noOpt := false
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/views/paths", viewRequest{
		Program: viewTestProgram, Optimize: &noOpt, TimeoutMS: 60_000,
	}, nil); code != http.StatusOK {
		t.Fatalf("view create: %d %s", code, raw)
	}
	var up updateResponse
	if code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/d/facts", "step(3, 4).", &up); code != http.StatusOK {
		t.Fatalf("facts add: %d %s", code, raw)
	}
	if up.FactsAdded != 1 || up.Dataset.Facts != 3 {
		t.Fatalf("update = %+v, want one fact added of three", up)
	}
	if len(up.Views) != 1 || !strings.Contains(up.Views[0].Error, "deadline exceeded") {
		t.Fatalf("update views = %+v, want the view's error to name the deadline", up.Views)
	}
	if got := s.metrics.QueryTimeouts.Load(); got != 0 {
		t.Fatalf("timeout counter = %d, want 0: the update itself succeeded", got)
	}
	var vr viewResponse
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/d/views/paths", nil, &vr); code != http.StatusOK {
		t.Fatalf("view get: %d %s", code, raw)
	}
	if want := []string{"(1, 2)", "(1, 3)", "(1, 4)", "(2, 3)", "(2, 4)", "(3, 4)"}; !reflect.DeepEqual(vr.Answers, want) {
		t.Fatalf("repaired answers = %v, want %v", vr.Answers, want)
	}
}

func TestServerViewOptimizedAgainstICs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)

	// An optimized view goes through the same rewrite cache as queries.
	var vr viewResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/views/good", viewRequest{
		Program: serverTestProgram, ICs: serverTestICs,
	}, &vr)
	if code != http.StatusOK {
		t.Fatalf("view create: %d %s", code, raw)
	}
	if !vr.Optimized {
		t.Fatalf("view not optimized: %+v", vr)
	}
	want := []string{"(1, 4)", "(1, 5)", "(2, 4)", "(2, 5)"}
	if !reflect.DeepEqual(vr.Answers, want) {
		t.Fatalf("answers = %v, want %v", vr.Answers, want)
	}

	// The rewritten program stays correct under mutation.
	var up updateResponse
	if code, raw := doRaw(t, http.MethodDelete, ts.URL+"/v1/datasets/d/facts", "endPoint(5).", &up); code != http.StatusOK {
		t.Fatalf("facts delete: %d %s", code, raw)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/d/views/good", nil, &vr)
	want = []string{"(1, 4)", "(2, 4)"}
	if !reflect.DeepEqual(vr.Answers, want) {
		t.Fatalf("post-retract answers = %v, want %v", vr.Answers, want)
	}
}

func TestServerQueryRoundDeltas(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", "step(1, 2). step(2, 3). step(3, 4).")

	// Opt-in: per-round delta sizes appear, sum to tuples_derived.
	var r queryResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: viewTestProgram, Dataset: "d", IncludeRoundDeltas: true,
	}, &r)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	if len(r.RoundDeltas) != r.Stats.Rounds {
		t.Fatalf("round_deltas has %d rounds, stats say %d", len(r.RoundDeltas), r.Stats.Rounds)
	}
	var sum int64
	for _, round := range r.RoundDeltas {
		for _, n := range round {
			sum += n
		}
	}
	if sum != r.Stats.TuplesDerived {
		t.Fatalf("round deltas sum to %d, tuples_derived = %d", sum, r.Stats.TuplesDerived)
	}

	// Default: absent from the response body.
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
		Program: viewTestProgram, Dataset: "d",
	}, &r)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	if strings.Contains(string(raw), "round_deltas") {
		t.Fatalf("round_deltas present without opt-in:\n%s", raw)
	}
}

// TestServerSnapshotBaseReuse: a dataset snapshot is interned by the
// first query that evaluates it and reused by the next; per-request
// facts evaluate over a private copy (a build of its own) without
// leaking into the snapshot or disturbing its base; a fact update
// swaps in a new snapshot, which the next query interns afresh.
func TestServerSnapshotBaseReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)
	query := func(extraFacts string) []string {
		t.Helper()
		var r queryResponse
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", queryRequest{
			Program: serverTestProgram, Dataset: "d", Facts: extraFacts,
		}, &r)
		if code != http.StatusOK {
			t.Fatalf("query: %d %s", code, raw)
		}
		return r.Answers
	}
	expect := func(step string, builds, reuses int64) {
		t.Helper()
		m := s.metrics
		if b, r := m.EDBBaseBuilds.Load(), m.EDBBaseReuses.Load(); b != builds || r != reuses {
			t.Fatalf("%s: builds=%d reuses=%d, want %d and %d", step, b, r, builds, reuses)
		}
	}

	base := query("")
	expect("first query on the snapshot", 1, 0)
	query("")
	expect("second query on the snapshot", 1, 1)
	if got := query("startPoint(3)."); len(got) <= len(base) {
		t.Fatalf("per-request fact had no effect: %v vs %v", got, base)
	}
	expect("query with per-request facts", 2, 1)
	if got := query(""); !reflect.DeepEqual(got, base) {
		t.Fatalf("per-request facts leaked into the snapshot: %v vs %v", got, base)
	}
	expect("snapshot query after a per-request copy", 2, 2)
	if code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/d/facts", "startPoint(3).", nil); code != http.StatusOK {
		t.Fatalf("facts add: %d %s", code, raw)
	}
	if got := query(""); len(got) <= len(base) {
		t.Fatalf("update not visible to the next query: %v vs %v", got, base)
	}
	expect("first query after an update", 3, 2)
}
