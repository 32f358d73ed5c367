package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"sync"
	"time"
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
	if len(b.buf) == 0 {
		time.AfterFunc(b.every, func() { b.Flush() })
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
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

// flushing is the handler over a logBuffer. It leaves a "request"
// record below Warn in the buffer and flushes after every other one, so
// startup, shutdown, warnings, errors and contained panics are out
// before the call that logs them returns, behind every request record
// logged before them.
type flushing struct {
	slog.Handler
	buf *logBuffer
}

func (h flushing) Handle(ctx context.Context, r slog.Record) error {
	err := h.Handler.Handle(ctx, r)
	if r.Message != "request" || r.Level >= slog.LevelWarn {
		return errors.Join(err, h.buf.Flush())
	}
	return err
}

func (h flushing) WithAttrs(attrs []slog.Attr) slog.Handler {
	return flushing{h.Handler.WithAttrs(attrs), h.buf}
}

func (h flushing) WithGroup(name string) slog.Handler {
	return flushing{h.Handler.WithGroup(name), h.buf}
}
