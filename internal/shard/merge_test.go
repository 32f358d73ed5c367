package shard_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestScatterMergeBodyIsTheSetMerge drives a coordinator over canned
// workers and requires the gathered body to equal, byte for byte, the one
// the previous gather wrote — every answer into a set, the set's keys
// sorted, the whole response through json.Encoder with an indent — for
// shards that overlap, a shard with no answers, a shard whose worker
// fails (degraded: its answers are missing, its name is listed), answers
// that need HTML-safe escaping, and a worker that replies unsorted, as
// one at an older version might: detected and sorted, not mis-merged,
// and echoed in its shard entry as it came.
func TestScatterMergeBodyIsTheSetMerge(t *testing.T) {
	replies := map[string][]string{
		"a":        {"(1, 2)", "(1, 3)", "(2, 3)", "(<x>, \"q\")"},
		"b":        {"(1, 3)", "(10, 11)", "(2, 3)", "(9, 9)"},
		"empty":    {},
		"unsorted": {"(7, 7)", "(1, 2)", "(3, 3)", "(1, 2)"},
		"down":     nil, // answers 500
	}
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Dataset string `json:"dataset"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		answers := replies[req.Dataset]
		if answers == nil {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error": "boom", "code": "internal_error"}`))
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"answers": answers, "answer_count": len(answers)})
	}))
	defer worker.Close()
	c, err := shard.NewCoordinator(shard.Config{Peers: []string{worker.URL}, Logger: quietLogger(), PeerTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	type shardAnswer struct {
		Dataset     string   `json:"dataset"`
		Peer        string   `json:"peer"`
		AnswerCount int      `json:"answer_count"`
		Answers     []string `json:"answers,omitempty"`
		Error       string   `json:"error,omitempty"`
	}
	type gathered struct {
		Answers        []string      `json:"answers"`
		AnswerCount    int           `json:"answer_count"`
		Degraded       bool          `json:"degraded"`
		FailedPeers    []string      `json:"failed_peers,omitempty"`
		FailedDatasets []string      `json:"failed_datasets,omitempty"`
		Shards         []shardAnswer `json:"shards"`
	}
	for _, names := range [][]string{
		{"a", "b"}, {"b", "a", "empty"}, {"empty"}, {"a", "unsorted", "b"}, {"a", "down", "b"}, {"down"}, {"a", "a"},
	} {
		body, _ := json.Marshal(map[string]any{"program": clusterProgram, "datasets": names})
		code, got := do(t, http.MethodPost, cs.URL+"/v1/query", string(body))
		if code != http.StatusOK {
			t.Fatalf("%v: %d %s", names, code, got)
		}
		want := gathered{Answers: []string{}}
		set := map[string]bool{}
		for _, name := range names {
			sh := shardAnswer{Dataset: name, Peer: worker.URL, Answers: replies[name], AnswerCount: len(replies[name])}
			if replies[name] == nil {
				sh.Error = "peer answered 500: boom"
				want.Degraded, want.FailedPeers = true, []string{worker.URL}
				want.FailedDatasets = append(want.FailedDatasets, name)
			}
			for _, a := range replies[name] {
				set[a] = true
			}
			want.Shards = append(want.Shards, sh)
		}
		for a := range set {
			want.Answers = append(want.Answers, a)
		}
		sort.Strings(want.Answers)
		want.AnswerCount = len(want.Answers)
		var ref bytes.Buffer
		enc := json.NewEncoder(&ref)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("%v: gathered body differs from the set merge\n got %s\nwant %s", names, got, ref.Bytes())
		}
	}
}
