package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// decodeSeeds are the request bodies the fuzz target starts from: the
// bodies of the contract and warm-path tests, the benchmark's shape (keys
// sorted, "<" escaped as \u003c), and the corners the scanner must get
// right or decline.
func decodeSeeds() []string {
	prog, ics := jsonString(serverTestProgram), jsonString(serverTestICs)
	chain := jsonString(chainProgram)
	warm := `{"program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path(1, Y).", "ics": ":- step(X, Y), Y <= X.", "dataset": "d"`
	bench, _ := json.Marshal(map[string]string{"program": respTC + "?- path(7, Y).\n", "ics": respICs, "dataset": "g"})
	return []string{
		// contract_test.go
		`{`,
		`{"program": ` + prog + `}`,
		`{"program": ` + prog + `, "datasets": ["d"]}`,
		`{"program": "p(X, Y) :- e(X, Y).", "dataset": "d"}`,
		`{"program": "p(X :-", "dataset": "d"}`,
		`{"program": ` + prog + `, "dataset": "d", "ics": ":- nope("}`,
		`{"program": ` + prog + `, "dataset": "d", "facts": "step(1"}`,
		`{"program": ` + prog + `, "dataset": "d", "facts": "step(3)."}`,
		`{"program": ` + prog + `, "dataset": "nope"}`,
		`{"program": ` + prog + `, "dataset": "d", "ics": ":- path(X, Y)."}`,
		`{"program": ` + prog + `, "ics": ":- path(X, Y)."}`,
		`{"program": ` + prog + `, "facts": "step(1"}`,
		`{"program": "p(X, Y) :- e(X, Y)."}`,
		`{"program": "p(X :-"}`,
		`{"program": ` + chain + `, "dataset": "chain", "optimize": false}`,
		`{"program": ` + chain + `, "dataset": "chain", "max_tuples": 10}`,
		`{"program": ` + jsonString("p(X) :- e(X, Y).\nq(X) :- e(X, Y), !p(X).\n?- q.") + `, "dataset": "chain", "optimize": false}`,
		`{"program": ` + prog + `, "ics": ` + ics + `}`,
		`{"program": ` + chain + `, "max_tuples": 1000000, "timeout_ms": 60000}`,
		// warm_test.go
		warm + `}`,
		warm + `, "optimize": false}`,
		`{"program": "path(X, Y) :- step(X, Y", "dataset": "d"}`,
		`{"program": "path(X, Y) :- step(X, Y). ?- path.", "ics": ":- step(X", "dataset": "d"}`,
		`{"program": "path(X, Y) :- step(X, Y).", "dataset": "d"}`,
		// the benchmark's point query
		string(bench),
		// retired fields, whatever their value, and a nested unknown member
		warm + `, "magic": "off", "elim": false}`,
		warm + `, "magic": true, "elim": {"a": [1, -2.5e-3, null, "x\"y"]}, "workers": 4, "join_order": null}`,
		// surrogates: a pair, a lone high one, a lone low one, a high one before another escape
		`{"program": "\ud83d\ude00 \ud83d", "ics": "\ude00x", "dataset": "\ud83d\u0041"}`,
		// invalid UTF-8, raw and in a key
		"{\"program\": \"a\xffb\xc3\", \"dataset\": \"d\"}",
		"{\"progr\xe9m\": \"p\"}",
		// a case-folded key, a duplicate key, nulls
		`{"Program": "p", "dataset": "d"}`,
		`{"program": "first", "program": "second", "optimize": true, "optimize": false}`,
		`{"program": null, "optimize": null, "dataset": "d"}`,
		`null`,
		// timeout_ms as an exponent, negative zero, a leading zero, past int32
		`{"program": "p", "timeout_ms": 1e3}`,
		`{"program": "p", "timeout_ms": -0}`,
		`{"program": "p", "timeout_ms": 01}`,
		`{"program": "p", "timeout_ms": 2147483648}`,
		`{"program": "p", "max_tuples": 9223372036854775808}`,
		// trailing bytes after the object, whitespace around it
		`{"program": "p"} trailing {"program": "q"}`,
		" \t\r\n{ \"program\" : \"p\" , \"include_round_deltas\" : true } ",
		// escapes of every kind
		`{"program": "\"\\\/\b\f\n\r\t\u0000\u00e9\u2028\u003c"}`,
		`{"program": "\x"}`,
		`{"program": "\u12"}`,
		``,
	}
}

// FuzzDecodeRequest holds the request scanner to encoding/json: for any
// bytes and each request shape, the scanner declines them, or
// json.Decoder — what decode falls back on — decodes the same bytes into
// an equal value.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		scanLikeDecoder[queryRequest](t, body)
		scanLikeDecoder[optimizeRequest](t, body)
		scanLikeDecoder[lintRequest](t, body)
		scanLikeDecoder[viewRequest](t, body)
	})
}

// scanLikeDecoder checks the scanner against json.Decoder on body as
// shape T, and reports whether the scanner took it.
func scanLikeDecoder[T any, P interface {
	*T
	request
}](t *testing.T, body []byte) bool {
	t.Helper()
	var got, want T
	var s scanner
	if !s.scan(body, P(&got)) {
		return false
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("%T: the scanner took %q, which encoding/json refuses: %v", got, body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q:\nscanner       %+v\nencoding/json %+v", got, body, got, want)
	}
	return true
}

// TestScanTakesRequests: the scanner takes what requests carry — the
// benchmark's and the warm path's bodies, retired fields, escapes of
// every kind, surrogates, invalid UTF-8, duplicates, trailing bytes —
// so that decode's fallback serves only the rare body; and it declines
// what encoding/json decides otherwise or refuses.
func TestScanTakesRequests(t *testing.T) {
	seeds := decodeSeeds()
	declined := map[string]bool{}
	for _, s := range []string{`{`, `null`, "{\"progr\xe9m\": \"p\"}", `{"Program": "p", "dataset": "d"}`,
		`{"program": null, "optimize": null, "dataset": "d"}`, `{"program": "p", "timeout_ms": 1e3}`,
		`{"program": "p", "timeout_ms": 01}`, `{"program": "p", "max_tuples": 9223372036854775808}`,
		`{"program": "\x"}`, `{"program": "\u12"}`, ``} {
		declined[s] = true
	}
	for _, body := range seeds {
		if took := scanLikeDecoder[queryRequest](t, []byte(body)); took == declined[body] {
			t.Errorf("the scanner took %q: %v, want %v", body, took, !declined[body])
		}
	}
	bench, _ := json.Marshal(map[string]string{"program": respTC + "?- path(7, Y).\n", "ics": respICs, "dataset": "g"})
	var q queryRequest
	var s scanner
	if !bytes.Contains(bench, []byte(`\u003c`)) || !s.scan(bench, &q) || q.ICs != respICs || q.Dataset != "g" {
		t.Fatalf("the benchmark's body %s scanned to %+v", bench, q)
	}
}
