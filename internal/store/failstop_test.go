package store

// Tests for a failed append: a failed write is truncated off the log, and
// a failed truncate or sync stops the store until a restart recovers it.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
)

// faultyWAL is a log whose write, sync or truncate fails with an error
// of the test's choosing; a failed write lets partial bytes through
// first, as a full disk does.
type faultyWAL struct {
	walFile
	writeErr, syncErr, truncErr error
	partial                     int
}

func (f *faultyWAL) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		n, _ := f.walFile.Write(p[:min(f.partial, len(p))])
		return n, f.writeErr
	}
	return f.walFile.Write(p)
}

func (f *faultyWAL) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.walFile.Sync()
}

func (f *faultyWAL) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	return f.walFile.Truncate(size)
}

// chain returns n facts edge(vK, vK+1) from k0 on.
func chain(k0, n int) []ast.Atom {
	var out []ast.Atom
	for k := k0; k < k0+n; k++ {
		out = append(out, edge(fmt.Sprintf("v%d", k), fmt.Sprintf("v%d", k+1)))
	}
	return out
}

// requireRecovers reopens dir and checks that it holds exactly the facts
// of want, with no torn tail.
func requireRecovers(t *testing.T, dir string, want []ast.Atom) {
	t.Helper()
	r, rec := mustOpen(t, dir, Options{})
	defer r.Close()
	if rec.Truncated {
		t.Fatalf("recovery cut a torn tail: %+v", rec)
	}
	got := map[string]bool{}
	for _, f := range r.Facts("g") {
		got[f.String()] = true
	}
	for _, f := range want {
		if !got[f.String()] {
			t.Fatalf("acknowledged fact %s lost; recovered %v", f, r.Facts("g"))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d facts, want %d: %v", len(got), len(want), r.Facts("g"))
	}
}

// TestFailedWriteIsTruncated: a write that fails after part of the record
// reached the log is cut back off it, the store goes on appending, and
// recovery holds every acknowledged fact and no torn record. When the
// truncate fails too, the store fails stop: the append that failed and
// every later append and checkpoint return the error.
func TestFailedWriteIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	acked := chain(0, 2)
	if err := s.AppendDatasetCreate("g", acked); err != nil {
		t.Fatal(err)
	}
	good := s.wal
	s.wal = &faultyWAL{walFile: good, writeErr: errors.New("no space left"), partial: 20}
	if err := s.AppendFacts("g", chain(10, 50), nil); err == nil || s.Failed() != nil {
		t.Fatalf("failed write: err %v, failed %v; want an error and a store that goes on", err, s.Failed())
	}
	s.wal = good
	if err := s.AppendFacts("g", chain(100, 1), nil); err != nil {
		t.Fatal(err)
	}
	acked = append(acked, chain(100, 1)...)
	s.wal = &faultyWAL{walFile: good, writeErr: errors.New("no space left"), partial: 7, truncErr: errors.New("read-only file system")}
	err := s.AppendFacts("g", chain(200, 3), nil)
	if err == nil || s.Failed() != err {
		t.Fatalf("failed write and truncate: err %v, failed %v; want the store stopped with that error", err, s.Failed())
	}
	s.wal = good
	if err := s.AppendFacts("g", chain(300, 1), nil); err != s.Failed() {
		t.Fatalf("append after failing stop: %v, want %v", err, s.Failed())
	}
	if err := s.Checkpoint(); err != s.Failed() {
		t.Fatalf("checkpoint after failing stop: %v, want %v", err, s.Failed())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The 7 bytes the failed truncate left are a torn tail: recovery cuts
	// them, and the acknowledged records before them are all there.
	r, rec := mustOpen(t, dir, Options{})
	if !rec.Truncated || rec.WALRecords != 2 {
		t.Fatalf("recovered %+v, want 2 records and the torn tail cut", rec)
	}
	r.Close()
	requireRecovers(t, dir, acked)
}

// TestFailedSyncStopsStore: under FsyncAlways a failed sync stops the
// store — the append that failed and every later one return the error,
// and so does a checkpoint — and a restart recovers every acknowledged
// fact and appends again.
func TestFailedSyncStopsStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	acked := chain(0, 3)
	if err := s.AppendDatasetCreate("g", acked); err != nil {
		t.Fatal(err)
	}
	s.wal = &faultyWAL{walFile: s.wal, syncErr: errors.New("EIO")}
	err := s.AppendFacts("g", chain(10, 1), nil)
	if err == nil || s.Failed() != err || !strings.Contains(err.Error(), "failed stop") {
		t.Fatalf("failed sync: err %v, failed %v", err, s.Failed())
	}
	if err := s.AppendFacts("g", chain(20, 1), nil); err != s.Failed() {
		t.Fatalf("append after failing stop: %v, want %v", err, s.Failed())
	}
	if err := s.Checkpoint(); err != s.Failed() {
		t.Fatalf("checkpoint after failing stop: %v", err)
	}
	s.Close()
	// The record whose sync failed was written, so it may be recovered:
	// it was never acknowledged, and nothing after it was logged.
	r, rec := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	if rec.Truncated || r.Failed() != nil {
		t.Fatalf("restart: %+v, failed %v", rec, r.Failed())
	}
	if err := r.AppendFacts("g", chain(30, 1), nil); err != nil {
		t.Fatalf("append after a restart: %v", err)
	}
	r.Close()
	r, _ = mustOpen(t, dir, Options{})
	defer r.Close()
	facts := fmt.Sprint(r.Facts("g"))
	for _, f := range append(acked, chain(30, 1)...) {
		if !strings.Contains(facts, f.String()) {
			t.Fatalf("acknowledged %s lost: %s", f, facts)
		}
	}
	if strings.Contains(facts, chain(20, 1)[0].String()) {
		t.Fatalf("an append refused after failing stop was recovered: %s", facts)
	}
}

// walPath is the log s appends to.
func walPath(s *Store) string { return filepath.Join(s.dir, s.walName) }

// walLen is the log's length on disk.
func walLen(t *testing.T, s *Store) int64 {
	t.Helper()
	fi, err := os.Stat(walPath(s))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
