package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// TestRestoreMatchesLiveServer drives a durable server through every
// WAL record kind, reopens its data directory, and checks that the
// recovered server shows what the live one showed: the dataset list
// (modulo last_modified), every view's body, and the dataset and view
// gauges. A view's stats restart at the checkpoint when one was taken,
// since recovery materializes it there; without one they match too.
// Replay applies the logged batches without counting them as requests:
// the fact-update and view-apply counters stay at 0.
func TestRestoreMatchesLiveServer(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(map[bool]string{false: "wal only", true: "checkpoint midway"}[checkpoint], func(t *testing.T) {
			dir := t.TempDir()
			st, rec, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			live, ts := newTestServer(t, Config{Store: st, Recovered: rec})
			must := func(method, path, body string) {
				t.Helper()
				if code, raw := doRaw(t, method, ts.URL+path, body, nil); code != http.StatusOK {
					t.Fatalf("%s %s: %d %s", method, path, code, raw)
				}
			}
			viewBody := func(program, ics string, optimize bool) string {
				b, _ := json.Marshal(viewRequest{Program: program, ICs: ics, Optimize: &optimize})
				return string(b)
			}
			must("PUT", "/v1/datasets/d", "step(1, 2). step(2, 3). startPoint(1). endPoint(3).")
			must("PUT", "/v1/datasets/d", "step(1, 2). step(2, 3). step(3, 4). startPoint(1). startPoint(2). endPoint(4).")
			must("POST", "/v1/datasets/d/facts", "step(2, 5). step(5, 4). endPoint(5).")
			must("DELETE", "/v1/datasets/d/facts", "step(2, 3).")
			must("POST", "/v1/datasets/d/views/good", viewBody(serverTestProgram, serverTestICs, true))
			must("POST", "/v1/datasets/d/views/paths", viewBody(viewTestProgram, "", false))
			must("POST", "/v1/datasets/d/views/gone", viewBody(viewTestProgram, "", false))
			if checkpoint {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			must("POST", "/v1/datasets/d/facts", "step(2, 3). step(4, 6). endPoint(6).")
			must("DELETE", "/v1/datasets/d/facts", "step(5, 4).")
			must("PUT", "/v1/datasets/d", "step(1, 2). step(2, 3). step(3, 4). step(4, 6). startPoint(1). endPoint(6). endPoint(4).")
			must("DELETE", "/v1/datasets/d/views/gone", "")
			must("POST", "/v1/datasets/e", "step(1, 2).")
			must("POST", "/v1/datasets/e/views/paths", viewBody(viewTestProgram, "", false))
			must("DELETE", "/v1/datasets/e", "")
			must("PUT", "/v1/datasets/e", "step(7, 8). step(8, 9).")
			must("POST", "/v1/datasets/e/views/paths2", viewBody(viewTestProgram, "", true))
			must("POST", "/v1/datasets/e/facts", "step(9, 10).")
			want := observe(t, live, ts.URL)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2, rec2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st2.Close() })
			restored, ts2 := newTestServer(t, Config{Store: st2, Recovered: rec2})
			got := observe(t, restored, ts2.URL)
			if checkpoint {
				for name, v := range want.views {
					if gv, ok := got.views[name]; ok && name != "e/paths2" {
						gv.Stats, v.Stats = viewStatsJSON{}, viewStatsJSON{}
						got.views[name], want.views[name] = gv, v
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored server differs from the live one:\n got  %+v\n want %+v", got, want)
			}
			if n := len(want.views); n != 3 {
				t.Fatalf("live server has %d views, want 3", n)
			}
			if fu, va := restored.metrics.FactUpdates.Load(), restored.metrics.ViewApplies.Load(); fu != 0 || va != 0 {
				t.Fatalf("after replay: fact updates %d, view applies %d; want 0 and 0", fu, va)
			}
		})
	}
}

// TestRequestBudgetCappedByServer: a request's max_tuples may lower the
// server's MaxTuples but never raise it. Recovery replays a view's
// creation under MaxTuples, so a view materialized above it would fail
// its replay and be gone after a restart, its WAL record kept: its
// creation is refused with 422 budget_exceeded instead, as is a query
// above the cap, and every view the live server holds is restored.
func TestRequestBudgetCappedByServer(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	live, ts := newTestServer(t, Config{Store: st, Recovered: rec, MaxTuples: 100})
	var chain strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&chain, "e(%d, %d).\n", i, i+1)
	}
	registerDataset(t, ts.URL, "chain", chain.String())
	registerDataset(t, ts.URL, "short", "e(1, 2). e(2, 3). e(3, 4).")
	above := func(path string, body any) {
		t.Helper()
		var eb errorBody
		if code, raw := doJSON(t, http.MethodPost, ts.URL+path, body, &eb); code != http.StatusUnprocessableEntity || eb.Code != "budget_exceeded" {
			t.Errorf("%s above the server's budget: %d %s, want 422 budget_exceeded", path, code, raw)
		}
	}
	above("/v1/datasets/chain/views/big", viewRequest{Program: chainProgram, MaxTuples: 1_000_000})
	above("/v1/query", queryRequest{Program: chainProgram, Dataset: "chain", MaxTuples: 1_000_000})
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/short/views/small", viewRequest{Program: chainProgram, MaxTuples: 1_000_000}, nil); code != http.StatusOK {
		t.Fatalf("view within the server's budget: %d %s", code, raw)
	}
	want := observe(t, live, ts.URL)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	restored, ts2 := newTestServer(t, Config{Store: st2, Recovered: rec2, MaxTuples: 100})
	if got := observe(t, restored, ts2.URL); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored server differs from the live one:\n got  %+v\n want %+v", got, want)
	}
}

// serverState is what TestRestoreMatchesLiveServer compares.
type serverState struct {
	datasets          []DatasetInfo
	views             map[string]viewResponse // dataset/view → GET body
	ndatasets, nviews int64                   // the gauges
}

func observe(t *testing.T, s *Server, base string) serverState {
	t.Helper()
	st := serverState{views: map[string]viewResponse{}}
	if code, raw := doJSON(t, http.MethodGet, base+"/v1/datasets", nil, &st.datasets); code != http.StatusOK {
		t.Fatalf("list: %d %s", code, raw)
	}
	for i := range st.datasets {
		info := &st.datasets[i]
		info.LastModified = time.Time{}
		for _, v := range info.Views {
			var vr viewResponse
			if code, raw := doJSON(t, http.MethodGet, base+"/v1/datasets/"+info.Name+"/views/"+v, nil, &vr); code != http.StatusOK {
				t.Fatalf("view %s/%s: %d %s", info.Name, v, code, raw)
			}
			st.views[info.Name+"/"+v] = vr
		}
	}
	st.ndatasets, st.nviews = s.metrics.Datasets.Load(), s.metrics.Views.Load()
	if st.ndatasets != int64(len(st.datasets)) || st.nviews != int64(len(st.views)) {
		t.Fatalf("gauges say %d datasets and %d views; the server lists %d and %d", st.ndatasets, st.nviews, len(st.datasets), len(st.views))
	}
	return st
}
