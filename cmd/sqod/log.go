package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/jsonresp"
)

// logFlushEvery bounds how long a request record may wait in the log
// buffer, and so how much of the log a SIGKILL can lose.
const logFlushEvery = 100 * time.Millisecond

// logBuffer is the one writer under sqod's slog handler. Records are
// appended whole, under one lock, and go out in the order they were
// written: at Flush, or `every` after the first one into an empty buffer.
type logBuffer struct {
	mu    sync.Mutex
	out   io.Writer
	every time.Duration
	buf   []byte
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arm()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// arm starts the flush timer when the buffer is empty, before a record
// goes in; the caller holds mu.
func (b *logBuffer) arm() {
	if len(b.buf) == 0 {
		time.AfterFunc(b.every, func() { b.Flush() })
	}
}

// appendRequest appends r as appendRecord writes it, and reports false,
// leaving the buffer as it was, when appendRecord cannot.
func (b *logBuffer) appendRequest(r slog.Record, form logForm) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.buf)
	line, ok := appendRecord(b.buf, r, form)
	if !ok {
		b.buf = line[:n]
		return false
	}
	b.arm()
	b.buf = line
	return true
}

// Flush writes out every record that waits.
func (b *logBuffer) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.out.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// logForm is the form of a flushing handler's log, when flushing may
// write request records itself.
type logForm int

const (
	formSlog logForm = iota // every record goes through the wrapped handler
	formText                // the wrapped handler is slog.NewTextHandler(buf, nil)
	formJSON                // the wrapped handler is slog.NewJSONHandler(buf, nil)
)

// flushing is the handler over a logBuffer. It leaves a "request"
// record below Warn in the buffer and flushes after every other one, so
// startup, shutdown, warnings, errors and contained panics are out
// before the call that logs them returns, behind every request record
// logged before them. Over slog's own handler, with no attributes or
// groups added, it appends an Info "request" record itself, the bytes
// that handler would write (appendRecord); a record it cannot write so
// goes to the handler.
type flushing struct {
	slog.Handler
	buf  *logBuffer
	form logForm
}

func (h flushing) Handle(ctx context.Context, r slog.Record) error {
	if r.Message != "request" || r.Level >= slog.LevelWarn {
		return errors.Join(h.Handler.Handle(ctx, r), h.buf.Flush())
	}
	if h.form != formSlog && r.Level == slog.LevelInfo && h.buf.appendRequest(r, h.form) {
		return nil
	}
	return h.Handler.Handle(ctx, r)
}

func (h flushing) WithAttrs(attrs []slog.Attr) slog.Handler {
	return flushing{h.Handler.WithAttrs(attrs), h.buf, formSlog}
}

func (h flushing) WithGroup(name string) slog.Handler {
	return flushing{h.Handler.WithGroup(name), h.buf, formSlog}
}

// appendRecord appends an Info record with message "request" as slog's
// text or JSON handler with default options writes it, and reports
// false when that handler would write it otherwise than appendRecord
// can: a record with no time or with a year outside 0–9999, a key or
// string value that is empty or holds a byte outside '!'–'~' or one of
// `"`, `\` and `=` (which the handler would quote or escape), or a value
// of a kind other than string, int and finite float.
func appendRecord(b []byte, r slog.Record, form logForm) ([]byte, bool) {
	t := r.Time.Round(0) // as the handler does: no monotonic reading
	if t.IsZero() || t.Year() < 0 || t.Year() > 9999 {
		return b, false
	}
	json := form == formJSON
	if json {
		b = append(t.AppendFormat(append(b, `{"time":"`...), time.RFC3339Nano), `","level":"INFO","msg":"request"`...)
	} else {
		// The text handler's time: RFC 3339 to the millisecond,
		// truncated.
		const prefixLen = len("2006-01-02T15:04:05.000")
		n := len(b) + len("time=")
		b = t.Truncate(time.Millisecond).Add(time.Millisecond/10).AppendFormat(append(b, "time="...), time.RFC3339Nano)
		b = append(append(b[:n+prefixLen], b[n+prefixLen+1:]...), " level=INFO msg=request"...)
	}
	ok := true
	r.Attrs(func(a slog.Attr) bool {
		if ok = bare(a.Key); !ok {
			return false
		}
		if json {
			b = append(append(append(b, `,"`...), a.Key...), `":`...)
		} else {
			b = append(append(append(b, ' '), a.Key...), '=')
		}
		switch v := a.Value; v.Kind() {
		case slog.KindString:
			if ok = bare(v.String()); ok && json {
				b = append(append(append(b, '"'), v.String()...), '"')
			} else if ok {
				b = append(b, v.String()...)
			}
		case slog.KindInt64:
			b = strconv.AppendInt(b, v.Int64(), 10)
		case slog.KindFloat64:
			f := v.Float64()
			if ok = !math.IsInf(f, 0) && !math.IsNaN(f); ok && json {
				b = jsonresp.AppendFloat(b, f) // the JSON handler's float is encoding/json's
			} else if ok {
				b = strconv.AppendFloat(b, f, 'g', -1, 64)
			}
		default:
			ok = false
		}
		return ok
	})
	if json {
		b = append(b, '}')
	}
	return append(b, '\n'), ok
}

// bare reports whether both of slog's handlers write s as it is: it is
// not empty, and every byte of it is printable ASCII other than a space,
// `"`, `\` and `=`.
func bare(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || c == '"' || c == '\\' || c == '=' {
			return false
		}
	}
	return s != ""
}
