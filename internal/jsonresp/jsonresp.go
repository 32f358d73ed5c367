// Package jsonresp writes sqod's JSON responses whose one large member is
// an array of answer strings: the envelope goes through encoding/json, the
// array is appended element by element from renderings the caller escaped
// once per distinct constant, and the body leaves through one pooled 64 KB
// buffer, so a million-answer response is never held whole — and never
// re-scanned by an encoder or an indenter.
//
// The contract is byte identity: Write produces exactly what
//
//	enc := json.NewEncoder(w); enc.SetIndent("", "  "); enc.Encode(v)
//
// produces for the same envelope with the answers in its "answers"
// member, HTML-safe escaping and the empty array's "[]" included. The
// tests hold it to that encoder.
package jsonresp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// chunkSize is the most of a body held before it is handed to the
// connection. A body under it still leaves in exactly one Write, so small
// responses keep their Content-Length; a larger one goes out chunked, as
// any body past net/http's own buffer already did.
const chunkSize = 64 << 10

var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, chunkSize) }}

// slot is how the indenting encoder writes an empty top-level "answers"
// member. No JSON string holds a raw newline and nested members sit
// deeper, so its first occurrence in an encoded envelope is that member.
var slot = []byte("\n  \"answers\": []")

// Write sends status and envelope as indented JSON, with the array that
// fill appends in place of the envelope's top-level "answers" member —
// which must be there and encode as [] (an empty, non-nil slice). The
// first failed write to w ends the response: Array's methods report
// false from then on and the rest is dropped.
func Write(w http.ResponseWriter, status int, envelope any, fill func(*Array)) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	var env bytes.Buffer
	enc := json.NewEncoder(&env)
	enc.SetIndent("", "  ")
	if err := enc.Encode(envelope); err != nil {
		return // what json.Encoder writes to w for a value it cannot encode: nothing
	}
	body := env.Bytes()
	at := bytes.Index(body, slot)
	if at < 0 {
		_, _ = w.Write(body)
		return
	}
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(w)
	_, _ = bw.Write(body[:at+len(slot)-1]) // up to and including the "["
	a := &Array{bw: bw}
	fill(a)
	if a.n > 0 {
		_, _ = bw.WriteString("\n  ")
	}
	_, _ = bw.Write(body[at+len(slot)-1:])
	_ = bw.Flush() // a failed write has nowhere to be reported but the connection
	bw.Reset(nil)
	writers.Put(bw)
}

// Array is the answers array of a response being written.
type Array struct {
	bw *bufio.Writer
	n  int
}

// open starts the next element in the writer's own buffer, after its
// opening quote.
func (a *Array) open() []byte {
	b := a.bw.AvailableBuffer()
	if a.n > 0 {
		b = append(b, ',')
	}
	a.n++
	return append(b, "\n    \""...)
}

// shut ends the element and reports whether the response is still being
// delivered.
func (a *Array) shut(b []byte) bool {
	_, err := a.bw.Write(append(b, '"'))
	return err == nil
}

// Tuple appends the element "(c1, c2, …)" — Tuple.String's form — from
// columns already escaped with AppendEscaped.
func (a *Array) Tuple(cols [][]byte) bool {
	b := append(a.open(), '(')
	for j, c := range cols {
		if j > 0 {
			b = append(b, ", "...)
		}
		b = append(b, c...)
	}
	return a.shut(append(b, ')'))
}

// String appends s as one element.
func (a *Array) String(s string) bool { return a.shut(AppendEscaped(a.open(), s)) }

// AppendEscaped appends s as encoding/json writes the inside of a string:
// by copying when no byte of it needs escaping, which is nearly always,
// and by asking encoding/json otherwise — its rules (HTML-safe <, >, &,
// U+2028/9, U+FFFD for invalid UTF-8, which control bytes get a short
// form) stay its own. Escaping works rune by rune, so the pieces of a
// string may be escaped apart wherever they are joined by ASCII.
func AppendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b[1:len(b)-1]...)
		}
	}
	return append(dst, s...)
}
