package jsonresp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"
)

// envelope is a response shape with what the real ones have around their
// answers: members before and after, a nested "answers" that must not be
// mistaken for the slot, floats, omitempty.
type envelope struct {
	Query   string           `json:"query"`
	Answers []string         `json:"answers"`
	Count   int              `json:"answer_count"`
	MS      float64          `json:"eval_ms"`
	Shards  []map[string]any `json:"shards,omitempty"`
}

// reference is the encoder Write replaces.
func reference(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// written is Write's body for the envelope with its answers streamed.
func written(t testing.TB, env envelope, answers []string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	env.Answers = []string{}
	Write(rec, http.StatusOK, env, func(a *Array) {
		for _, s := range answers {
			if !a.String(s) {
				t.Fatal("a write to a recorder failed")
			}
		}
	})
	return rec
}

// nasty is every single byte, every rune boundary encoding/json treats
// specially, and a few of them joined.
func nasty() []string {
	out := []string{"", "plain", "(1, 2)", `"`, `\`, `\"`, "<>&", "</script>", "\u2028", "\u2029", "a\u2028b",
		"\xff", "\xc3", "\xc3\xa9", "é", "日本語", "\xed\xa0\x80", "a\x00b", "\x7f", "tab\there", "nl\nhere", "\b\f\r",
		"\u00a0", "\ufffd", "\U0001F600", strings.Repeat("é\"<", 40)}
	for c := 0; c < 256; c++ {
		out = append(out, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"b")
	}
	return out
}

func TestAppendEscapedIsEncodingJSON(t *testing.T) {
	for _, s := range nasty() {
		want := reference(s)
		want = want[1 : len(want)-2] // less the quotes and the newline
		if got := AppendEscaped(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendEscaped(%q) = %s, encoding/json writes %s", s, got, want)
		}
		// Escaping is per rune: pieces joined by ASCII escape apart.
		joined := AppendEscaped(AppendEscaped(AppendEscaped(nil, s), ", "), s)
		whole := reference(s + ", " + s)
		if !bytes.Equal(joined, whole[1:len(whole)-2]) {
			t.Errorf("%q escaped in pieces = %s, whole = %s", s, joined, whole)
		}
	}
}

// TestWriteIsTheIndentingEncoder: for zero, one and many answers, the
// body is byte for byte what json.Encoder with SetIndent("", "  ") writes
// for the envelope holding them — "[]" for none, no comma after the last,
// HTML-safe escapes — and a nested "answers" member is left alone.
func TestWriteIsTheIndentingEncoder(t *testing.T) {
	env := envelope{Query: "path \"q\"\n  \"answers\": []", Count: 3, MS: 0.125,
		Shards: []map[string]any{{"answers": []string{}, "dataset": "a"}, {"answers": []string{"x"}}}}
	for _, answers := range [][]string{{}, {"(1, 2)"}, {"(1, 2)", "(1, 3)"}, nasty()} {
		want := env
		want.Answers = answers
		rec := written(t, env, answers)
		if !bytes.Equal(rec.Body.Bytes(), reference(want)) {
			t.Fatalf("%d answers:\n got %s\nwant %s", len(answers), rec.Body, reference(want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" || rec.Code != http.StatusOK {
			t.Fatalf("status %d, Content-Type %q", rec.Code, ct)
		}
	}
	// Tuple writes Tuple.String's form from escaped columns.
	rec := httptest.NewRecorder()
	Write(rec, http.StatusOK, envelope{Answers: []string{}}, func(a *Array) {
		a.Tuple(nil)
		a.Tuple([][]byte{AppendEscaped(nil, `"a<b"`)})
		a.Tuple([][]byte{[]byte("1"), AppendEscaped(nil, "\u2028"), []byte("c")})
	})
	if want := reference(envelope{Answers: []string{"()", `("a<b")`, "(1, \u2028, c)"}}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("Tuple:\n got %s\nwant %s", rec.Body, want)
	}
	// An envelope with no empty top-level "answers" goes out as it is.
	rec = httptest.NewRecorder()
	Write(rec, http.StatusOK, map[string]int{"n": 1}, func(*Array) { t.Fatal("fill called without a slot") })
	if want := reference(map[string]int{"n": 1}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("no slot: got %s want %s", rec.Body, want)
	}
}

// countingWriter records the size of every Write and fails from the
// failAt-th on.
type countingWriter struct {
	http.ResponseWriter
	sizes  []int
	failAt int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.failAt > 0 && len(w.sizes)+1 >= w.failAt {
		w.sizes = append(w.sizes, -1)
		return 0, errors.New("client went away")
	}
	w.sizes = append(w.sizes, len(p))
	return w.ResponseWriter.Write(p)
}

// TestWriteChunks: a body under the chunk size is exactly one Write; a
// 70,000-answer body — every answer carrying escapes, so chunk boundaries
// fall inside \uXXXX sequences — leaves in chunks of at most chunkSize
// that concatenate to the reference; and the first failed Write is the
// last one, with fill told to stop.
func TestWriteChunks(t *testing.T) {
	small := &countingWriter{ResponseWriter: httptest.NewRecorder()}
	Write(small, http.StatusOK, envelope{Answers: []string{}}, func(a *Array) { a.String("(1, 2)") })
	if len(small.sizes) != 1 {
		t.Fatalf("a small body took %d Writes, want exactly 1", len(small.sizes))
	}

	answers := make([]string, 70000)
	for i := range answers {
		answers[i] = fmt.Sprintf("(%d, \"\u2028<%d>\x01\")", i, i%7)
	}
	rec := httptest.NewRecorder()
	large := &countingWriter{ResponseWriter: rec}
	env := envelope{Query: "q", Answers: []string{}, Count: len(answers)}
	Write(large, http.StatusOK, env, func(a *Array) {
		for _, s := range answers {
			a.String(s)
		}
	})
	env.Answers = answers
	want := reference(env)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("70,000 answers: chunked body differs from the reference encoder's")
	}
	if len(large.sizes) != (len(want)+chunkSize-1)/chunkSize {
		t.Fatalf("%d bytes left in %d Writes, want %d-byte chunks", len(want), len(large.sizes), chunkSize)
	}
	split := false
	for i, at := 0, 0; i < len(large.sizes)-1; i++ {
		if large.sizes[i] != chunkSize {
			t.Fatalf("chunk %d is %d bytes, want %d", i, large.sizes[i], chunkSize)
		}
		at += large.sizes[i]
		if j := bytes.LastIndexByte(want[:at], '\\'); at-j < 6 && want[j+1] == 'u' {
			split = true
		}
		if !utf8.Valid(want[:at]) {
			t.Fatal("test data: expected ASCII-only escapes at chunk boundaries")
		}
	}
	if !split {
		t.Fatal("no chunk boundary fell inside a \\uXXXX escape; the case lost its point")
	}

	failing := &countingWriter{ResponseWriter: httptest.NewRecorder(), failAt: 2}
	appended, refused := 0, 0
	Write(failing, http.StatusOK, envelope{Answers: []string{}}, func(a *Array) {
		for _, s := range answers {
			if appended++; !a.String(s) {
				refused++
				break
			}
		}
	})
	if len(failing.sizes) != 2 || refused != 1 || appended >= len(answers) {
		t.Fatalf("after a failed second Write: %d Writes, %d answers appended of %d, refused %d; want 2 Writes and an early stop",
			len(failing.sizes), appended, len(answers), refused)
	}
}
