package main

import (
	"fmt"
	"log/slog"
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
	return slog.New(flushing{slog.NewTextHandler(buf, nil), buf}), buf, read
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
