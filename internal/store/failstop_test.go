package store

// Tests for a failed append: a failed write is truncated off the log, and
// a failed truncate or sync stops the store until a restart recovers it.

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	for _, f := range datasetFacts(r, "g") {
		got[f.String()] = true
	}
	for _, f := range want {
		if !got[f.String()] {
			t.Fatalf("acknowledged fact %s lost; recovered %v", f, datasetFacts(r, "g"))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d facts, want %d: %v", len(got), len(want), datasetFacts(r, "g"))
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
	facts := fmt.Sprint(datasetFacts(r, "g"))
	for _, f := range append(acked, chain(30, 1)...) {
		if !strings.Contains(facts, f.String()) {
			t.Fatalf("acknowledged %s lost: %s", f, facts)
		}
	}
	if strings.Contains(facts, chain(20, 1)[0].String()) {
		t.Fatalf("an append refused after failing stop was recovered: %s", facts)
	}
}

// TestFailedAppendDifferential runs a fixed sequence of appends under
// FsyncAlways and fails, in turn, the write and then the sync of each
// one. Recovery holds exactly the acknowledged appends. A failed write
// is cut back off the log and the sequence goes on. A failed sync stops
// the store: the later appends are refused and log nothing, and the
// record whose sync failed, written but never acknowledged, survives
// only as far as the disk kept it. Both disks are checked: one that kept
// the whole record, and one cut back to the acknowledged bytes, as a
// power loss before the sync leaves it.
func TestFailedAppendDifferential(t *testing.T) {
	const n = 6
	// Append k adds two facts and retracts the first one append k-1 added.
	op := func(k int) (adds, dels []ast.Atom) {
		if k > 0 {
			dels = chain(10*(k-1), 1)
		}
		return chain(10*k, 2), dels
	}
	apply := func(state map[string]bool, k int) {
		adds, dels := op(k)
		for _, f := range dels {
			delete(state, f.String())
		}
		for _, f := range adds {
			state[f.String()] = true
		}
	}
	facts := func(state map[string]bool) []ast.Atom {
		var out []ast.Atom
		for k := 0; k < n; k++ {
			for _, f := range chain(10*k, 2) {
				if state[f.String()] {
					out = append(out, f)
				}
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		for _, fault := range []string{"write", "sync"} {
			t.Run(fmt.Sprintf("%s-%d", fault, i), func(t *testing.T) {
				dir := t.TempDir()
				s, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
				if err := s.AppendDatasetCreate("g", nil); err != nil {
					t.Fatal(err)
				}
				good := s.wal
				acked := map[string]bool{}
				for k := 0; k < n; k++ {
					s.wal = good
					if k == i && fault == "write" {
						s.wal = &faultyWAL{walFile: good, writeErr: errors.New("no space left"), partial: 5}
					} else if k == i {
						s.wal = &faultyWAL{walFile: good, syncErr: errors.New("EIO")}
					}
					adds, dels := op(k)
					err := s.AppendFacts("g", adds, dels)
					if wantAck := k != i && (fault == "write" || k < i); (err == nil) != wantAck {
						t.Fatalf("append %d: err %v, want acknowledged %v", k, err, wantAck)
					}
					if err == nil {
						apply(acked, k)
					}
				}
				ackedBytes, wal := s.walSize, walPath(s)
				s.wal = good
				s.Close()
				if fault == "write" {
					requireRecovers(t, dir, facts(acked))
					return
				}
				kept := maps.Clone(acked)
				apply(kept, i)
				requireRecovers(t, dir, facts(kept))
				if err := os.Truncate(wal, ackedBytes); err != nil {
					t.Fatal(err)
				}
				requireRecovers(t, dir, facts(acked))
			})
		}
	}
}

// TestFailedIntervalSyncStopsStore: under FsyncInterval a failed timer
// sync stops the store — the next append and checkpoint return the
// error — and a restart recovers every acknowledged fact.
func TestFailedIntervalSyncStopsStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncInterval, FsyncInterval: time.Millisecond})
	acked := chain(0, 3)
	if err := s.AppendDatasetCreate("g", acked); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.wal = &faultyWAL{walFile: s.wal, syncErr: errors.New("EIO")}
	s.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); s.Failed() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the store went on after its interval sync failed")
		}
	}
	if !strings.Contains(s.Failed().Error(), "failed stop") {
		t.Fatalf("failed with %v", s.Failed())
	}
	if err := s.AppendFacts("g", chain(10, 1), nil); err != s.Failed() {
		t.Fatalf("append after failing stop: %v, want %v", err, s.Failed())
	}
	if err := s.Checkpoint(); err != s.Failed() {
		t.Fatalf("checkpoint after failing stop: %v, want %v", err, s.Failed())
	}
	s.Close()
	requireRecovers(t, dir, acked)
}

// TestFailedCheckpointSyncStopsStore: a checkpoint whose log sync fails
// stops the store — it and every later append and checkpoint return the
// error — and a restart recovers every acknowledged fact.
func TestFailedCheckpointSyncStopsStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	acked := chain(0, 3)
	if err := s.AppendDatasetCreate("g", acked); err != nil {
		t.Fatal(err)
	}
	s.wal = &faultyWAL{walFile: s.wal, syncErr: errors.New("EIO")}
	err := s.Checkpoint()
	if err == nil || s.Failed() != err {
		t.Fatalf("checkpoint with a failed sync: err %v, failed %v; want the store stopped with that error", err, s.Failed())
	}
	if err := s.AppendFacts("g", chain(10, 1), nil); err != s.Failed() {
		t.Fatalf("append after failing stop: %v, want %v", err, s.Failed())
	}
	if err := s.Checkpoint(); err != s.Failed() {
		t.Fatalf("checkpoint after failing stop: %v, want %v", err, s.Failed())
	}
	s.Close()
	requireRecovers(t, dir, acked)
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

// TestAutoCheckpointFailureAcksAppend: an automatic checkpoint runs
// after its append's record is in the log and the mirror, so its failure
// does not fail the append. One that stops the store (here the log's
// sync) shows in Failed and fails the next append; restarting recovers
// the acknowledged fact. Any other failure (here the checkpoint file's
// write) leaves the store appending and is retried after as many records
// again. Either failure is counted in Counters.
func TestAutoCheckpointFailureAcksAppend(t *testing.T) {
	t.Run("stop", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, CheckpointEvery: 2})
		acked := chain(0, 2)
		if err := s.AppendDatasetCreate("g", acked); err != nil {
			t.Fatal(err)
		}
		s.wal = &faultyWAL{walFile: s.wal, syncErr: errors.New("EIO")}
		if err := s.AppendFacts("g", chain(10, 1), nil); err != nil {
			t.Fatalf("append whose auto-checkpoint failed: %v, want it acknowledged", err)
		}
		acked = append(acked, chain(10, 1)...)
		if s.Failed() == nil || !strings.Contains(s.Failed().Error(), "failed stop") {
			t.Fatalf("failed = %v, want the store stopped", s.Failed())
		}
		if c := s.Counters(); c.CheckpointFailures != 1 {
			t.Fatalf("checkpoint failures = %d, want 1", c.CheckpointFailures)
		}
		if err := s.AppendFacts("g", chain(20, 1), nil); err != s.Failed() {
			t.Fatalf("append after failing stop: %v, want %v", err, s.Failed())
		}
		s.Close()
		requireRecovers(t, dir, acked)
	})
	t.Run("retry", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, CheckpointEvery: 2})
		acked := chain(0, 2)
		if err := s.AppendDatasetCreate("g", acked); err != nil {
			t.Fatal(err)
		}
		s.writeFile = func(path string, data []byte) error {
			if strings.HasPrefix(filepath.Base(path), ckptPrefix) {
				return errors.New("no space left")
			}
			return writeFileAtomic(path, data)
		}
		for i, batch := range [][]ast.Atom{chain(10, 1), chain(20, 1), chain(30, 1)} {
			if i == 1 {
				s.writeFile = writeFileAtomic
			}
			if err := s.AppendFacts("g", batch, nil); err != nil || s.Failed() != nil {
				t.Fatalf("append %d: err %v, failed %v", i, err, s.Failed())
			}
			acked = append(acked, batch...)
		}
		if c := s.Counters(); c.Checkpoints != 1 || c.CheckpointFailures != 1 {
			t.Fatalf("checkpoints = %d, failures = %d; want the second threshold's, and the first's failure", c.Checkpoints, c.CheckpointFailures)
		}
		s.Close()
		requireRecovers(t, dir, acked)
	})
}

// TestFailedManifestStopsStore: a checkpoint whose manifest write fails
// stops the store, whether the new manifest reached the disk or not —
// if it did, recovery reads the new, empty WAL, and an append to the old
// one would be acknowledged and lost. A failure before the manifest (the
// checkpoint file's write) leaves the old pair current, and the store
// goes on appending to it. Every acknowledged fact is recovered.
func TestFailedManifestStopsStore(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fail     string // the file whose write fails
		landed   bool   // the write reached the disk before it failed
		stopping bool
	}{
		{"manifest-lost", manifestName, false, true},
		{"manifest-landed", manifestName, true, true},
		{"checkpoint-file", ckptPrefix, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
			acked := chain(0, 3)
			if err := s.AppendDatasetCreate("g", acked); err != nil {
				t.Fatal(err)
			}
			s.writeFile = func(path string, data []byte) error {
				if !strings.HasPrefix(filepath.Base(path), tc.fail) {
					return writeFileAtomic(path, data)
				}
				if tc.landed {
					if err := writeFileAtomic(path, data); err != nil {
						return err
					}
				}
				return errors.New("EIO")
			}
			err := s.Checkpoint()
			s.writeFile = writeFileAtomic
			if err == nil || (s.Failed() == err) != tc.stopping {
				t.Fatalf("checkpoint: err %v, failed %v; want stopped %v", err, s.Failed(), tc.stopping)
			}
			err = s.AppendFacts("g", chain(10, 1), nil)
			if tc.stopping && err != s.Failed() || !tc.stopping && err != nil {
				t.Fatalf("append after the failed checkpoint: %v, failed %v", err, s.Failed())
			}
			if err == nil {
				acked = append(acked, chain(10, 1)...)
			}
			s.Close()
			requireRecovers(t, dir, acked)
		})
	}
}
