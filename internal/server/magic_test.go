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
// end: a bound point query evaluates through the magic rewrite and
// reports magic:true, an unbound query never applies magic, and
// sqod_eval_magic_total counts exactly the magic evaluations.
func TestServerMagicPointQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "g", serverTestFacts)

	type resp struct {
		Answers []string `json:"answers"`
		Magic   bool     `json:"magic"`
	}
	query := func(program string) resp {
		t.Helper()
		var out resp
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"program": program,
			"dataset": "g",
		}, &out)
		if code != http.StatusOK {
			t.Fatalf("query: %d %s", code, raw)
		}
		return out
	}

	withMagic := query(magicTestProgram)
	if !withMagic.Magic {
		t.Fatal("bound point query did not evaluate via magic")
	}
	// Reachable from 1: 2, 3, 4, 5.
	if want := []string{"(1, 2)", "(1, 3)", "(1, 4)", "(1, 5)"}; !reflect.DeepEqual(withMagic.Answers, want) {
		t.Fatalf("answers = %v, want %v", withMagic.Answers, want)
	}
	if unbound := query(serverTestProgram); unbound.Magic {
		t.Fatal("goal-less query reports magic:true")
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

// TestServerOnIsAuto: "magic" and "elim" were /v1/query fields, "on"
// a spelling of "auto", until the engine chose its rewrites itself. Now
// every value is auto: a request that still sends either field, with
// any value, is the request without it: it hits the one
// rewrite-cache entry the plain request made, goes through the rewrites
// that apply (magic on a bound TC goal, magic and elimination on a
// bounded one), and its body is byte-identical to the plain request's
// but for the *_ms members and cache_hit.
func TestServerOnIsAuto(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "g", serverTestFacts+" likes(a, 1). likes(b, 2). trendy(c).")
	const buys = `buys(X, Y) :- likes(X, Y). buys(X, Y) :- trendy(X), buys(Z, Y). ?- buys(a, Y).`
	values := []string{`""`, `"on"`, `"auto"`, `"off"`, `"sideways"`, `false`, `0`, `{}`}
	for _, c := range []struct {
		program string
		elim    bool
	}{{magicTestProgram, false}, {buys, true}} {
		prefix := `{"program": ` + jsonString(c.program) + `, "dataset": "g"`
		body := func(extra string) string {
			t.Helper()
			code, raw := doRaw(t, http.MethodPost, ts.URL+"/v1/query", prefix+extra+`}`, nil)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", extra, code, raw)
			}
			return msFields.ReplaceAllString(string(raw), `"$1_ms": 0`)
		}
		before := s.cache.Stats()
		want := strings.Replace(body(""), `"cache_hit": false`, `"cache_hit": true`, 1)
		if !strings.Contains(want, `"magic": true`) || strings.Contains(want, `"elim": true`) != c.elim {
			t.Fatalf("want magic:true and elim:%t, got %s", c.elim, want)
		}
		n := 0
		for _, v := range values {
			for _, extra := range []string{`, "magic": ` + v, `, "elim": ` + v, `, "magic": ` + v + `, "elim": ` + v} {
				if got := body(extra); got != want {
					t.Fatalf("%s: body differs from the request without it:\n%s\nvs\n%s", extra, got, want)
				}
				n++
			}
		}
		if st := s.cache.Stats(); st.Misses-before.Misses != 1 || st.Hits-before.Hits != int64(n) || st.Size-before.Size != 1 {
			t.Fatalf("cache %+v after %+v, want 1 miss, %d hits and 1 entry more", st, before, n)
		}
	}
}
