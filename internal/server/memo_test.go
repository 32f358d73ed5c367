package server

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// msFields matches the two timing members of a query response, the only
// bytes a repeated query may change.
var msFields = regexp.MustCompile(`"(optimize|eval)_ms": [0-9.e+-]+`)

// TestRepeatedQueryAnswersFromMemo: a query repeated over an unchanged
// snapshot is answered from the snapshot's answer memo from its third
// request on (the first compiles the prepared query's plans, the second
// reuses them and fills the memo). Its body is byte-identical to the
// second's but for the *_ms members, and to the first's but for those
// and cache_hit; the hit ticks sqod_answer_memo_hits_total and adds
// nothing to the engine-work counters. A fact update makes a new
// snapshot, whose first query evaluates again.
func TestRepeatedQueryAnswersFromMemo(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", serverTestFacts)
	m := s.metrics
	engine := func() [6]int64 {
		return [6]int64{m.EvalRounds.Load(), m.TuplesDerived.Load(), m.RuleFirings.Load(),
			m.JoinProbes.Load(), m.EvalMagic.Load(), m.EvalElim.Load()}
	}
	for _, body := range []string{
		`{"program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path(2, Y).", "dataset": "d", "include_round_deltas": true}`,
		`{"program": ` + jsonString(serverTestProgram) + `, "ics": ":- startPoint(X), endPoint(Y), Y <= X.", "dataset": "d"}`,
	} {
		var bodies []string
		var hits []int64
		var work [][6]int64
		for i := 0; i < 4; i++ {
			code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/query", body, nil)
			if code != http.StatusOK {
				t.Fatalf("query %d: %d %s", i, code, raw)
			}
			bodies = append(bodies, msFields.ReplaceAllString(string(raw), `"$1_ms": 0`))
			hits, work = append(hits, m.AnswerMemoHits.Load()), append(work, engine())
		}
		if bodies[1] != bodies[2] || bodies[2] != bodies[3] {
			t.Fatalf("a memo hit changed the body:\n%s\nvs\n%s", bodies[1], bodies[2])
		}
		if want := strings.Replace(bodies[0], `"cache_hit": false`, `"cache_hit": true`, 1); want != bodies[2] {
			t.Fatalf("a memo hit differs from the first answer:\n%s\nvs\n%s", bodies[0], bodies[2])
		}
		if !strings.Contains(bodies[0], `"answers": [`) {
			t.Fatalf("no answers: %s", bodies[0])
		}
		if hits[1] != hits[0] || hits[2] != hits[1]+1 || hits[3] != hits[2]+1 {
			t.Fatalf("sqod_answer_memo_hits_total read %v, want the third and fourth requests to tick it", hits)
		}
		if work[1] == work[0] || work[2] != work[1] || work[3] != work[2] {
			t.Fatalf("engine counters %v: a memo hit added work, or the second request none", work)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "\nsqod_answer_memo_hits_total 4\n") {
		t.Fatalf("/metrics lacks sqod_answer_memo_hits_total 4:\n%s", text)
	}

	if code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets/d/facts", "step(4, 9).", nil); code != http.StatusOK {
		t.Fatalf("facts add: %d %s", code, raw)
	}
	before := m.AnswerMemoHits.Load()
	code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/query",
		`{"program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path(2, Y).", "dataset": "d"}`, nil)
	if code != http.StatusOK || !strings.Contains(string(raw), `"(2, 9)"`) || m.AnswerMemoHits.Load() != before {
		t.Fatalf("query after an update: %d hit=%v %s", code, m.AnswerMemoHits.Load() != before, raw)
	}
}
