package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// This file reads the JSON request bodies of /v1/query, /v1/optimize,
// /v1/lint and view creation. A body is read whole and scanned by hand;
// a body the scanner declines goes to json.Decoder on the same bytes, so
// every answer, a 400's text included, is encoding/json's
// (FuzzDecodeRequest holds the scanner to it).

// request is one of the four request shapes. member decodes the value of
// the member named key when key is one of its fields' names exactly, and
// reports whether it is.
type request interface {
	member(s *scanner, key []byte) bool
}

func (q *queryRequest) member(s *scanner, key []byte) bool {
	switch string(key) {
	case "program":
		q.Program = s.str()
	case "ics":
		q.ICs = s.str()
	case "dataset":
		q.Dataset = s.str()
	case "facts":
		q.Facts = s.str()
	case "timeout_ms":
		q.TimeoutMS = int(s.integer(strconv.IntSize))
	case "optimize":
		q.Optimize = s.boolPtr()
	case "max_tuples":
		q.MaxTuples = s.integer(64)
	case "include_round_deltas":
		q.IncludeRoundDeltas = s.boolean()
	default:
		return false
	}
	return true
}

func (q *optimizeRequest) member(s *scanner, key []byte) bool {
	switch string(key) {
	case "program":
		q.Program = s.str()
	case "ics":
		q.ICs = s.str()
	default:
		return false
	}
	return true
}

func (q *lintRequest) member(s *scanner, key []byte) bool {
	switch string(key) {
	case "program":
		q.Program = s.str()
	case "ics":
		q.ICs = s.str()
	case "facts":
		q.Facts = s.str()
	case "timeout_ms":
		q.TimeoutMS = int(s.integer(strconv.IntSize))
	default:
		return false
	}
	return true
}

func (q *viewRequest) member(s *scanner, key []byte) bool {
	switch string(key) {
	case "program":
		q.Program = s.str()
	case "ics":
		q.ICs = s.str()
	case "optimize":
		q.Optimize = s.boolPtr()
	case "timeout_ms":
		q.TimeoutMS = int(s.integer(strconv.IntSize))
	case "max_tuples":
		q.MaxTuples = s.integer(64)
	default:
		return false
	}
	return true
}

// bodyReader is what reading one request body takes: the body, and a
// scanner with its scratch for unescaping strings.
type bodyReader struct {
	body bytes.Buffer
	s    scanner
}

var bodyReaders = sync.Pool{New: func() any { return new(bodyReader) }}

// decode reads a request body of shape T: scanned when scan takes it,
// else as json.NewDecoder(body).Decode does, whose error is the 400's.
// The body is read whole first, under the server's body limit.
func decode[T any, P interface {
	*T
	request
}](r *http.Request) (T, error) {
	var req T
	br := bodyReaders.Get().(*bodyReader)
	defer func() {
		if br.body.Cap() <= 64<<10 && cap(br.s.scratch) <= 64<<10 {
			br.body.Reset()
			bodyReaders.Put(br)
		}
	}()
	if _, err := br.body.ReadFrom(r.Body); err != nil {
		return req, errorf(http.StatusBadRequest, "bad_request", "decoding JSON: %v", err)
	}
	body := br.body.Bytes()
	if br.s.scan(body, P(&req)) {
		return req, nil
	}
	req = *new(T)
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return req, errorf(http.StatusBadRequest, "bad_request", "decoding JSON: %v", err)
	}
	return req, nil
}

// scan decodes body into v, as json.Decoder would, when body is a JSON
// object whose members are v's fields by exact name or unknown names
// with no upper-case letter, the fields' values of their own types (no
// null), and every key free of escapes and non-ASCII bytes; a later
// duplicate wins and what follows the object is not read. It reports
// false for any other body, leaving v partly written.
func (s *scanner) scan(body []byte, v request) bool {
	s.b, s.i, s.ok = body, 0, true
	s.ws()
	if !s.byte('{') {
		return false
	}
	if s.ws(); s.i < len(s.b) && s.b[s.i] == '}' {
		return true
	}
	for s.ok {
		s.ws()
		key := s.key()
		s.ws()
		if !s.byte(':') {
			return false
		}
		s.ws()
		if !v.member(s, key) {
			if bytes.ContainsFunc(key, func(r rune) bool { return 'A' <= r && r <= 'Z' }) {
				return false // encoding/json matches a key to a field case-insensitively
			}
			s.skip()
		}
		s.ws()
		if s.i < len(s.b) && s.b[s.i] == '}' {
			return s.ok
		}
		s.byte(',')
	}
	return false
}

// scanner reads a JSON text; ok falls at the first byte it declines.
type scanner struct {
	b       []byte
	i       int
	ok      bool
	scratch []byte // a string being unescaped
}

func (s *scanner) decline() { s.ok, s.i = false, len(s.b) }

// ws skips whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// byte consumes c, or declines.
func (s *scanner) byte(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	s.decline()
	return false
}

// key reads a member's name: a string of printable ASCII with no
// escape.
func (s *scanner) key() []byte {
	if !s.byte('"') {
		return nil
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c >= 0x7f || c == '\\':
			s.decline()
			return nil
		}
	}
	s.decline()
	return nil
}

// str reads a string value as encoding/json unquotes it: escapes
// resolved, a UTF-16 surrogate pair joined, and a lone surrogate or a
// byte of invalid UTF-8 turned into U+FFFD.
func (s *scanner) str() string {
	if !s.byte('"') {
		return ""
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c == '"' {
			s.i++
			return string(s.b[start : s.i-1])
		}
		if c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	out := append(s.scratch[:0], s.b[start:s.i]...)
	defer func() { s.scratch = out }()
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return string(out)
		case c < 0x20:
			s.decline()
			return ""
		case c == '\\':
			out = s.escape(out)
		case c < utf8.RuneSelf:
			out = append(out, c)
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			out = utf8.AppendRune(out, r) // U+FFFD for an invalid byte
			s.i += size
		}
	}
	s.decline()
	return ""
}

// escape appends the character of the escape at s.i.
func (s *scanner) escape(out []byte) []byte {
	if s.i+1 >= len(s.b) {
		s.decline()
		return out
	}
	c := s.b[s.i+1]
	s.i += 2
	switch c {
	case '"', '\\', '/':
		return append(out, c)
	case 'b':
		return append(out, '\b')
	case 'f':
		return append(out, '\f')
	case 'n':
		return append(out, '\n')
	case 'r':
		return append(out, '\r')
	case 't':
		return append(out, '\t')
	case 'u':
		r := s.hex4(s.i)
		if r < 0 {
			s.decline()
			return out
		}
		s.i += 4
		if utf16.IsSurrogate(r) {
			if s.i+1 < len(s.b) && s.b[s.i] == '\\' && s.b[s.i+1] == 'u' {
				if pair := utf16.DecodeRune(r, s.hex4(s.i+2)); pair != utf8.RuneError {
					s.i += 6
					return utf8.AppendRune(out, pair)
				}
			}
			r = utf8.RuneError
		}
		return utf8.AppendRune(out, r)
	}
	s.decline()
	return out
}

// hex4 is the value of the four hex digits at i, or -1.
func (s *scanner) hex4(i int) rune {
	if i+4 > len(s.b) {
		return -1
	}
	var r rune
	for _, c := range s.b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// integer reads a number written as an integer that fits bits bits; a
// fraction or an exponent it declines, as encoding/json refuses them.
func (s *scanner) integer(bits int) int64 {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	digits := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	n, err := strconv.ParseInt(string(s.b[start:s.i]), 10, bits)
	if err != nil || s.b[digits] == '0' && s.i-digits > 1 || s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.decline()
	}
	return n
}

// literal consumes word, or declines.
func (s *scanner) literal(word string) bool {
	if len(s.b)-s.i >= len(word) && string(s.b[s.i:s.i+len(word)]) == word {
		s.i += len(word)
		return true
	}
	s.decline()
	return false
}

func (s *scanner) boolean() bool {
	if s.i < len(s.b) && s.b[s.i] == 't' {
		return s.literal("true")
	}
	s.literal("false")
	return false
}

func (s *scanner) boolPtr() *bool {
	b := s.boolean()
	return &b
}

// skip reads a value of any type as encoding/json does.
func (s *scanner) skip() {
	dec := json.NewDecoder(bytes.NewReader(s.b[s.i:]))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		s.decline()
		return
	}
	s.i += int(dec.InputOffset())
}
