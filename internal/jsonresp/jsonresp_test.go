package jsonresp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// envelope is a response shape with what the real ones have around their
// answers: members before and after, a string that needs escaping, a
// float. Its Envelope methods append it by hand, as sqod's do.
type envelope struct {
	Query   string   `json:"query"`
	Answers []string `json:"answers"`
	Count   int      `json:"answer_count"`
	MS      float64  `json:"eval_ms"`
}

func (e envelope) AppendHead(b []byte) []byte {
	b = append(AppendEscaped(append(b, "{\n  \"query\": \""...), e.Query), '"')
	return append(b, ",\n  \"answers\": "...)
}

func (e envelope) AppendTail(b []byte) []byte {
	b = strconv.AppendInt(append(b, ",\n  \"answer_count\": "...), int64(e.Count), 10)
	b = AppendFloat(append(b, ",\n  \"eval_ms\": "...), e.MS)
	return append(b, "\n}\n"...)
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

// appendString appends s as one element, escaped as encoding/json
// escapes it, and reports whether the response is still being delivered.
func appendString(a *Array, s string) bool {
	a.set(append(AppendEscaped(a.open(), s), '"'))
	return !a.failed
}

// written is Write's body for the envelope with its answers appended by
// fill, or copied from kept, and the array Write returned for keeping.
func written(t testing.TB, env envelope, answers []string, kept []byte) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	array := Write(rec, http.StatusOK, env, kept, true, func(a *Array) {
		for _, s := range answers {
			if !appendString(a, s) {
				t.Fatal("a write to a recorder failed")
			}
		}
	})
	return rec, array
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

func TestAppendFloatIsEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.001, 0.125, 123.456, 1e-6, 9.99e-7, 1e-7, 1e-300,
		5e-324, 1e20, 1e21, 1.5e21, -1e21, math.MaxFloat64, float64(1<<53 + 1), 0.1 + 0.2} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
}

// TestWriteIsTheIndentingEncoder: for zero, one and many answers, the
// body is byte for byte what json.Encoder with SetIndent("", "  ") writes
// for the envelope holding them — "[]" for none, no comma after the last,
// HTML-safe escapes — and so is the body written again from the array
// Write returned, which is returned only when there are answers.
func TestWriteIsTheIndentingEncoder(t *testing.T) {
	env := envelope{Query: "path \"q\"\n  \"answers\": []<&>", Count: 3, MS: 0.125}
	for _, answers := range [][]string{{}, {"(1, 2)"}, {"(1, 2)", "(1, 3)"}, nasty()} {
		want := env
		want.Answers = answers
		rec, array := written(t, env, answers, nil)
		if !bytes.Equal(rec.Body.Bytes(), reference(want)) {
			t.Fatalf("%d answers:\n got %s\nwant %s", len(answers), rec.Body, reference(want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" || rec.Code != http.StatusOK {
			t.Fatalf("status %d, Content-Type %q", rec.Code, ct)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
		}
		if (array == nil) != (len(answers) == 0) {
			t.Fatalf("%d answers: Write returned %d bytes to keep", len(answers), len(array))
		}
		if array == nil {
			continue
		}
		again, _ := written(t, env, []string{"not written"}, array)
		if !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("%d answers from the kept array:\n got %s\nwant %s", len(answers), again.Body, rec.Body)
		}
	}
	// Tuple writes Tuple.String's form from escaped columns.
	rec := httptest.NewRecorder()
	Write(rec, http.StatusOK, envelope{}, nil, false, func(a *Array) {
		a.Tuple(nil)
		a.Tuple([][]byte{AppendEscaped(nil, `"a<b"`)})
		a.Tuple([][]byte{[]byte("1"), AppendEscaped(nil, "\u2028"), []byte("c")})
	})
	if want := reference(envelope{Answers: []string{"()", `("a<b")`, "(1, \u2028, c)"}}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("Tuple:\n got %s\nwant %s", rec.Body, want)
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

// TestWriteChunks: a body under the chunk size is exactly one Write,
// with its Content-Length; a 70,000-answer body — every answer carrying
// escapes, so chunk boundaries fall inside \uXXXX sequences — leaves in
// chunks of chunkSize and a last one, with no Content-Length, concatenated
// to the reference, and returns no array to keep, nor does one whose
// array ends past the first chunk; and the first failed Write is the last
// one, with fill told to stop.
func TestWriteChunks(t *testing.T) {
	small := &countingWriter{ResponseWriter: httptest.NewRecorder()}
	Write(small, http.StatusOK, envelope{}, nil, false, func(a *Array) { appendString(a, "(1, 2)") })
	if len(small.sizes) != 1 || small.Header().Get("Content-Length") != strconv.Itoa(small.sizes[0]) {
		t.Fatalf("a small body took %d Writes with Content-Length %q, want exactly 1 with its length",
			len(small.sizes), small.Header().Get("Content-Length"))
	}

	answers := make([]string, 70000)
	for i := range answers {
		answers[i] = fmt.Sprintf("(%d, \"\u2028<%d>\x01\")", i, i%7)
	}
	rec := httptest.NewRecorder()
	large := &countingWriter{ResponseWriter: rec}
	env := envelope{Query: "q", Count: len(answers)}
	array := Write(large, http.StatusOK, env, nil, true, func(a *Array) {
		for _, s := range answers {
			appendString(a, s)
		}
	})
	env.Answers = answers
	want := reference(env)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("70,000 answers: chunked body differs from the reference encoder's")
	}
	if array != nil || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("70,000 answers: %d bytes returned to keep, Content-Length %q", len(array), rec.Header().Get("Content-Length"))
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
	if _, array := written(t, envelope{}, answers[:2000], nil); array != nil {
		t.Fatalf("an array that crossed a chunk boundary was returned to keep (%d bytes)", len(array))
	}

	failing := &countingWriter{ResponseWriter: httptest.NewRecorder(), failAt: 2}
	appended, refused := 0, 0
	Write(failing, http.StatusOK, envelope{}, nil, false, func(a *Array) {
		for _, s := range answers {
			if appended++; !appendString(a, s) {
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
