// Package jsonresp writes sqod's JSON responses whose one large member is
// an array of answer strings. The caller's Envelope appends the object's
// other members by hand, the array is appended element by element from
// renderings the caller escaped once per distinct constant (or copied
// whole from an array an earlier response kept), and the body leaves
// through one pooled buffer in 64 KB chunks, so a million-answer response
// is never held whole, and never re-scanned by an encoder or an
// indenter. A body that never fills a chunk leaves in one Write with its
// Content-Length; a larger one goes out chunked.
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
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// chunkSize is the most of a body held before it is handed to the
// connection, and the most of an answers array Write returns for keeping.
const chunkSize = 64 << 10

// arrays are the writers of bodies, each with a buffer for a chunk and
// the element that crosses its end.
var arrays = sync.Pool{New: func() any { return &Array{buf: make([]byte, 2*chunkSize)} }}

// contentType is the header value of every body, shared by all: nothing
// writes to a header value in place.
var contentType = []string{"application/json; charset=utf-8"}

// Envelope is a response's JSON object around its answers array, in the
// indenting encoder's form: two spaces per level, the array a top-level
// member.
type Envelope interface {
	// AppendHead appends the object up to the array: the "{", the members
	// before it and the key, through `"answers": `.
	AppendHead(b []byte) []byte
	// AppendTail appends the rest: the members after the array, the "}"
	// and the encoder's closing newline.
	AppendTail(b []byte) []byte
}

// Write sends status and env with its answers array: kept when it is not
// nil (an array a Write returned before, for the same answers), else the
// one fill appends. When keep is set, fill appended at least one answer
// and its array ended before a chunk was full, Write returns a copy of
// the array for the caller to keep; otherwise nil. The first failed write
// to w ends the response: Array's methods report false from then on and
// the rest is dropped.
func Write(w http.ResponseWriter, status int, env Envelope, kept []byte, keep bool, fill func(*Array)) (array []byte) {
	w.Header()["Content-Type"] = contentType
	a := arrays.Get().(*Array)
	a.w, a.status = w, status
	a.set(env.AppendHead(a.buf[:0]))
	if kept != nil {
		a.set(append(a.body(), kept...))
	} else {
		start, chunks := a.n, a.chunks
		a.set(append(a.body(), '['))
		fill(a)
		b := a.body()
		if a.elems > 0 {
			b = append(b, "\n  "...)
		}
		a.set(append(b, ']'))
		if keep && a.elems > 0 && a.chunks == chunks {
			array = append([]byte(nil), a.body()[start:]...)
		}
	}
	b := env.AppendTail(a.body())
	if a.chunks == 0 {
		// The whole body is here: say how long it is, which net/http
		// does on its own only for bodies under its 2 KB buffer.
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	}
	a.write(b) // a failed write has nowhere to be reported but the connection
	if cap(a.buf) <= 2*chunkSize {
		*a = Array{buf: a.buf}
		arrays.Put(a)
	}
	return array
}

// Array is the answers array of a response being written, and the body
// it is written into.
type Array struct {
	w      http.ResponseWriter
	status int
	// buf[:n] is the body not yet written. buf changes only when an
	// append outgrows it, so appending an element writes no pointer.
	buf    []byte
	n      int
	elems  int // elements appended
	chunks int // chunks written
	failed bool
}

func (a *Array) body() []byte { return a.buf[:a.n] }

// set makes b, an append to body(), the body, and writes out every full
// chunk it holds.
func (a *Array) set(b []byte) {
	if cap(b) != cap(a.buf) {
		a.buf = b[:cap(b)]
	}
	a.n = len(b)
	at := 0
	for a.n-at >= chunkSize && !a.failed {
		a.write(a.buf[at : at+chunkSize])
		at += chunkSize
	}
	if at > 0 {
		a.n = copy(a.buf, a.buf[at:a.n])
	}
}

// write hands p to the connection, the status first when nothing has
// gone before it, and records a failure.
func (a *Array) write(p []byte) {
	if a.failed {
		return
	}
	if a.chunks == 0 {
		a.w.WriteHeader(a.status)
	}
	a.chunks++
	if _, err := a.w.Write(p); err != nil {
		a.failed = true
	}
}

// Tuple appends the element "(c1, c2, …)" — Tuple.String's form — from
// columns already escaped with AppendEscaped, and reports whether the
// response is still being delivered.
func (a *Array) Tuple(cols [][]byte) bool {
	b := append(a.open(), '(')
	for j, c := range cols {
		if j > 0 {
			b = append(b, ", "...)
		}
		b = append(b, c...)
	}
	a.set(append(b, ')', '"'))
	return !a.failed
}

// open starts the next element, through its opening quote.
func (a *Array) open() []byte {
	b := a.body()
	if a.elems > 0 {
		b = append(b, ',')
	}
	a.elems++
	return append(b, "\n    \""...)
}

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

// AppendFloat appends f as encoding/json writes a float64: like %g, but
// in positional form from 1e-6 up to 1e21 and with an unpadded exponent
// outside it. f must be finite.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}
