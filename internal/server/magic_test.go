package server

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

const magicTestProgram = `
	path(X, Y) :- step(X, Y).
	path(X, Y) :- step(X, Z), path(Z, Y).
	?- path(1, Y).
`

// TestServerMagicPointQuery exercises the goal-directed surface end to
// end: a bound point query evaluates through the magic rewrite by
// default and reports magic:true, per-request "magic":"off" falls back
// to bottom-up with identical answers, an unbound query never applies
// magic, invalid modes answer 400, and sqod_eval_magic_total counts
// exactly the magic evaluations.
func TestServerMagicPointQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "g", serverTestFacts)

	type resp struct {
		Answers []string `json:"answers"`
		Magic   bool     `json:"magic"`
	}
	query := func(program, mode string) resp {
		t.Helper()
		var out resp
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"program": program,
			"dataset": "g",
			"magic":   mode,
		}, &out)
		if code != http.StatusOK {
			t.Fatalf("query(magic=%q): %d %s", mode, code, raw)
		}
		return out
	}

	withMagic := query(magicTestProgram, "")
	if !withMagic.Magic {
		t.Fatal("bound point query did not evaluate via magic by default")
	}
	// Reachable from 1: 2, 3, 4, 5.
	if len(withMagic.Answers) != 4 {
		t.Fatalf("answers = %v, want 4 nodes reachable from 1", withMagic.Answers)
	}
	withoutMagic := query(magicTestProgram, "off")
	if withoutMagic.Magic {
		t.Fatal("magic=off still reports magic:true")
	}
	if !reflect.DeepEqual(withMagic.Answers, withoutMagic.Answers) {
		t.Fatalf("magic changed answers:\n%v\nvs\n%v", withMagic.Answers, withoutMagic.Answers)
	}

	unbound := query(serverTestProgram, "on")
	if unbound.Magic {
		t.Fatal("goal-less query reports magic:true")
	}

	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"program": magicTestProgram,
		"dataset": "g",
		"magic":   "sometimes",
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid magic mode: %d %s, want 400", code, raw)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if want := "sqod_eval_magic_total 1"; !strings.Contains(string(body), want) {
		t.Fatalf("metrics missing %q:\n%s", want, body)
	}
}
