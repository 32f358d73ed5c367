package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testLog returns a logger over a logBuffer that writes to a file, the
// buffer, and a reader of the file's current contents.
func testLog(t *testing.T, every time.Duration) (*slog.Logger, *logBuffer, func() string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sqod.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	buf := &logBuffer{out: f, every: every}
	read := func() string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return slog.New(flushing{slog.NewTextHandler(buf, nil), buf, formText}), buf, read
}

// Request records wait in the buffer; any other record, and a request
// record at Warn or above, is in the file when its call returns, behind
// the request records logged before it.
func TestLogFlushRule(t *testing.T) {
	logger, _, read := testLog(t, time.Hour) // the timer never fires
	logger.Info("request", "n", 1)
	if got := read(); got != "" {
		t.Fatalf("a request record reached the file at once:\n%s", got)
	}
	logger.Info("listening", "addr", ":0")
	assertMsgs(t, read(), "request", "listening")

	logger.Info("request", "n", 2)
	logger.Warn("request", "n", 3)
	assertMsgs(t, read(), "request", "listening", "request", "request")

	logger.Info("request", "n", 4)
	logger.Error("server failed", "err", "boom")
	assertMsgs(t, read(), "request", "listening", "request", "request", "request", "server failed")

	logger.With("data_dir", "d").Info("store opened")
	logger.WithGroup("g").Info("final checkpoint written")
	assertMsgs(t, read(), "request", "listening", "request", "request", "request", "server failed", "store opened", "final checkpoint written")

	logger.Info("request", "n", 5)
	logger.Info("drained cleanly; exiting")
	assertMsgs(t, read(), "request", "listening", "request", "request", "request", "server failed", "store opened", "final checkpoint written", "request", "drained cleanly; exiting")
}

// A timer writes a request record out within logFlushEvery.
func TestLogRequestsFlushOnTimer(t *testing.T) {
	logger, _, read := testLog(t, logFlushEvery)
	logger.Info("request", "n", 1)
	start := time.Now()
	for !strings.Contains(read(), "msg=request") {
		if time.Since(start) > 20*logFlushEvery {
			t.Fatalf("a request record waited more than %v", 20*logFlushEvery)
		}
		time.Sleep(logFlushEvery / 10)
	}
	t.Logf("a request record reached the file after %v", time.Since(start))
}

// Records logged concurrently reach the file whole, each writer's in its
// own order, none lost.
func TestLogConcurrentWholeLines(t *testing.T) {
	logger, buf, read := testLog(t, time.Millisecond)
	const writers, records = 8, 300
	pad := strings.Repeat("x", 500)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < records; i++ {
				msg := "request"
				if i%50 == 0 {
					msg = "store opened"
				}
				logger.Info(msg, "w", w, "i", i, "pad", pad)
			}
		}()
	}
	wg.Wait()
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(read(), "\n"), "\n")
	if len(lines) != writers*records {
		t.Fatalf("%d lines, want %d", len(lines), writers*records)
	}
	next := make([]int, writers)
	for _, line := range lines {
		var w, i int
		at := strings.Index(line, " w=")
		if at < 0 || !strings.HasPrefix(line, "time=") || !strings.HasSuffix(line, " pad="+pad) {
			t.Fatalf("a torn line: %.120s", line)
		}
		if _, err := fmt.Sscanf(line[at:], " w=%d i=%d", &w, &i); err != nil || w < 0 || w >= writers {
			t.Fatalf("a torn line: %.120s", line)
		}
		if i != next[w] {
			t.Fatalf("writer %d: record %d after %d", w, i, next[w]-1)
		}
		next[w]++
	}
}

// TestRequestRecordIsSlogs: a request record handled by flushing, over
// the text and over the JSON handler, writes the bytes that handler
// writes for it, whether flushing appends it itself or hands it on; both
// paths are taken, the second for every value the handler quotes or
// escapes and for a record of another shape.
func TestRequestRecordIsSlogs(t *testing.T) {
	forms := []struct {
		form logForm
		new  func(io.Writer) slog.Handler
	}{
		{formText, func(w io.Writer) slog.Handler { return slog.NewTextHandler(w, nil) }},
		{formJSON, func(w io.Writer) slog.Handler { return slog.NewJSONHandler(w, nil) }},
	}
	times := []time.Time{
		time.Date(2026, 3, 4, 5, 6, 7, 891_234_567, time.UTC),
		time.Date(999, 12, 31, 23, 59, 59, 0, time.FixedZone("", -(3*3600+30*60))),
		time.Date(2026, 1, 1, 0, 0, 0, 1_000_000, time.FixedZone("", 5*3600)),
	}
	paths := []string{"/v1/query", "/v1/datasets/g/views/v", "/metrics", "/v1/datasets/a b/facts", `/v1/"x"`, "/v1/a=b",
		"/v1/a\nb", "/v1/\xff\xfe", "/v1/é", "/v1/a\\b", ""}
	durs := []float64{0, 0.001, 1e-7, 1e21, 12.345, math.Copysign(0, -1)}
	var records []slog.Record
	request := func(at time.Time, path string, status int, dur float64, size int, remote string) {
		r := slog.NewRecord(at, slog.LevelInfo, "request", 0)
		r.AddAttrs(slog.String("endpoint", "query"), slog.String("method", "POST"), slog.String("path", path),
			slog.Int("status", status), slog.Float64("dur_ms", dur), slog.Int("bytes", size), slog.String("remote", remote))
		records = append(records, r)
	}
	for i, path := range paths {
		for j, dur := range durs {
			request(times[(i+j)%len(times)], path, 200+i, dur, -j*1000, "127.0.0.1:40000")
		}
	}
	request(times[0], "/v1/query", 200, 0.5, 1234, "")
	odd := slog.NewRecord(times[0], slog.LevelInfo, "request", 0)
	odd.AddAttrs(slog.Bool("ok", true), slog.Group("g", slog.Int("n", 1)), slog.Duration("d", time.Second))
	records = append(records, odd, slog.NewRecord(time.Time{}, slog.LevelInfo, "request", 0))

	for _, f := range forms {
		appended, handedOn := 0, 0
		for _, r := range records {
			var want, got bytes.Buffer
			if err := f.new(&want).Handle(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			buf := &logBuffer{out: &got, every: time.Hour}
			if err := (flushing{f.new(buf), buf, f.form}).Handle(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			if err := buf.Flush(); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("form %d:\n got %q\nwant %q", f.form, got.String(), want.String())
			}
			if _, ok := appendRecord(nil, r, f.form); ok {
				appended++
			} else {
				handedOn++
			}
		}
		t.Logf("form %d: %d records appended by flushing, %d handed on", f.form, appended, handedOn)
		if appended == 0 || handedOn == 0 {
			t.Errorf("form %d: %d records appended by flushing, %d handed on; want both paths taken", f.form, appended, handedOn)
		}
	}
}

// assertMsgs checks that the log holds exactly the records msgs, in order.
func assertMsgs(t *testing.T, log string, msgs ...string) {
	t.Helper()
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(log, "\n"), "\n") {
		if line == "" {
			continue
		}
		_, rest, ok := strings.Cut(line, " msg=")
		if !ok {
			t.Fatalf("no msg in %q", line)
		}
		if strings.HasPrefix(rest, `"`) {
			rest = rest[1 : strings.Index(rest[1:], `"`)+1]
		} else if sp := strings.IndexByte(rest, ' '); sp >= 0 {
			rest = rest[:sp]
		}
		got = append(got, rest)
	}
	if strings.Join(got, "|") != strings.Join(msgs, "|") {
		t.Fatalf("log records %q, want %q:\n%s", got, msgs, log)
	}
}
