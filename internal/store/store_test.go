package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ast"
)

func fact(pred string, args ...ast.Term) ast.Atom { return ast.NewAtom(pred, args...) }

func edge(a, b string) ast.Atom { return fact("edge", ast.S(a), ast.S(b)) }

func mustOpen(t *testing.T, dir string, opts Options) (*Store, *Recovered) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s, rec
}

// The basic durability contract: everything appended before a clean
// close is there after reopen, with identical rows.
func TestReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, Options{})
	if len(rec.Datasets) != 0 || len(rec.Tail) != 0 {
		t.Fatalf("fresh store recovered state: %+v", rec)
	}
	if err := s.AppendDatasetCreate("g", []ast.Atom{edge("a", "b"), edge("b", "c")}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts("g", []ast.Atom{edge("c", "d"), fact("weight", ast.S("a"), ast.N(1.5))}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendViewRegister("g", ViewDef{Name: "tc", Program: "tc(X,Y) :- edge(X,Y).", Optimized: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts("g", nil, []ast.Atom{edge("a", "b")}); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Appends != 4 || c.Bytes == 0 {
		t.Fatalf("counters: %+v", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, rec2 := mustOpen(t, dir, Options{})
	defer r.Close()
	if rec2.WALRecords != 4 || rec2.Truncated {
		t.Fatalf("recovered: %+v", rec2)
	}
	if diff := s.DiffState(r); diff != "" {
		t.Fatalf("recovered state differs: %s", diff)
	}
	want := "[edge(b, c) edge(c, d) weight(a, 1.5)]"
	if got := fmt.Sprint(r.Facts("g")); got != want {
		t.Fatalf("facts = %s, want %s", got, want)
	}
	views := r.Views("g")
	if len(views) != 1 || views[0].Name != "tc" || !views[0].Optimized {
		t.Fatalf("views = %+v", views)
	}
	// The tail ops surface in replay order for the server to re-apply.
	if len(rec2.Tail) != 4 || rec2.Tail[0].Kind != OpDatasetCreate || rec2.Tail[2].Kind != OpViewRegister {
		t.Fatalf("tail = %+v", rec2.Tail)
	}
}

// Checkpointing moves the state into a segment, truncates the WAL, and
// recovery from the segment alone is bit-identical — interned rows
// included, which depend on the symbol ids the WAL history assigned.
func TestCheckpointAndSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	var facts []ast.Atom
	for i := 0; i < 400; i++ {
		facts = append(facts, fact("n", ast.N(float64(i)), ast.S(fmt.Sprintf("v%d", i%7))))
	}
	if err := s.AppendDatasetCreate("big", facts); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendViewRegister("big", ViewDef{Name: "q", Program: "q(X) :- n(X, Y)."}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d", c.Checkpoints)
	}
	// Post-checkpoint ops land in the fresh WAL.
	if err := s.AppendFacts("big", []ast.Atom{fact("n", ast.N(1000), ast.S("x"))}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, rec := mustOpen(t, dir, Options{})
	defer r.Close()
	if len(rec.Datasets) != 1 || rec.Datasets[0].Name != "big" || len(rec.Datasets[0].Facts) != 400 {
		t.Fatalf("checkpoint base: %d datasets", len(rec.Datasets))
	}
	if rec.WALRecords != 1 || len(rec.Tail) != 1 || rec.Tail[0].Kind != OpFacts {
		t.Fatalf("tail: %+v", rec)
	}
	if diff := s.DiffState(r); diff != "" {
		t.Fatalf("recovered state differs: %s", diff)
	}
	if rows := r.Rows("big", "n"); len(rows) != 401 {
		t.Fatalf("recovered %d rows of n, want 401", len(rows))
	}
}

// TestRecoverVersion1Segment: testdata/v1 is a store whose last
// checkpoint was written in segment format 1, with one distinct-value
// sketch per column — in exact and in spilled mode — between each
// predicate's header and its rows. It recovers to the rows and views of
// a store that ran the same operations, sketches skipped, and its next
// checkpoint is written in format 2, without them.
func TestRecoverVersion1Segment(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"MANIFEST", "seg-000002.sqos", "wal-000002.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, rec := mustOpen(t, dir, Options{})
	defer r.Close()
	if rec.WALRecords != 0 || len(rec.Datasets) != 2 {
		t.Fatalf("recovered: %+v", rec)
	}

	// The operations the fixture's store ran before its checkpoint.
	want, _ := mustOpen(t, "", Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(want.AppendDatasetCreate("g", []ast.Atom{edge("a", "b"), edge("b", "c"), edge("c", "d"), fact("weight", ast.S("a"), ast.N(1.5))}))
	var ns []ast.Atom
	for i := 0; i < 200; i++ { // 200 values in column 0: a spilled sketch
		ns = append(ns, fact("n", ast.N(float64(i)), ast.S(fmt.Sprintf("v%d", i%7))))
	}
	must(want.AppendFacts("g", ns, nil))
	must(want.AppendViewRegister("g", ViewDef{Name: "tc", Program: "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n?- tc.\n", ICs: ":- edge(X, X).", Optimized: true}))
	must(want.AppendFacts("g", nil, []ast.Atom{edge("a", "b"), fact("n", ast.N(3), ast.S("v3"))}))
	must(want.AppendDatasetCreate("h", []ast.Atom{fact("flag"), fact("p", ast.N(-2))}))
	if diff := want.DiffState(r); diff != "" {
		t.Fatalf("version-1 segment recovered to a different state: %s", diff)
	}
	if got := len(r.Rows("g", "n")); got != 199 {
		t.Fatalf("n has %d rows, want 199", got)
	}

	must(r.Checkpoint())
	seg, err := os.ReadFile(filepath.Join(dir, r.segName))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(seg[4:]); v != segVersion {
		t.Fatalf("checkpoint wrote format %d, want %d", v, segVersion)
	}
	again, _ := mustOpen(t, "", Options{})
	if err := again.loadSegment(seg); err != nil {
		t.Fatal(err)
	}
	if diff := want.DiffState(again); diff != "" {
		t.Fatalf("format-2 rewrite recovered to a different state: %s", diff)
	}
}

// Auto-checkpoint fires inside append once CheckpointEvery records
// accumulate, including across restarts (the replayed tail counts).
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CheckpointEvery: 3})
	if err := s.AppendDatasetCreate("d", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.AppendFacts("d", []ast.Atom{fact("p", ast.N(float64(i)))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Counters(); c.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2", c.Checkpoints)
	}
	s.Close()
	r, rec := mustOpen(t, dir, Options{CheckpointEvery: 3})
	defer r.Close()
	if rec.WALRecords != 0 {
		t.Fatalf("wal tail after auto-checkpoint: %d records", rec.WALRecords)
	}
	if len(r.Facts("d")) != 5 {
		t.Fatalf("facts: %v", r.Facts("d"))
	}
}

// A torn tail (partial final record) is cut at the last good record:
// recovery keeps the complete prefix and the file is truncated so the
// next append starts clean.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.AppendDatasetCreate("d", []ast.Atom{fact("p", ast.N(1))}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts("d", []ast.Atom{fact("p", ast.N(2))}, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	wal := filepath.Join(dir, s.walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-way through the second record.
	rec1len := 8 + int(binary.LittleEndian.Uint32(data[0:]))
	if err := os.WriteFile(wal, data[:rec1len+5], 0o644); err != nil {
		t.Fatal(err)
	}

	r, rec := mustOpen(t, dir, Options{})
	defer r.Close()
	if !rec.Truncated || rec.WALRecords != 1 {
		t.Fatalf("recovered: %+v", rec)
	}
	if got := fmt.Sprint(r.Facts("d")); got != "[p(1)]" {
		t.Fatalf("facts = %s", got)
	}
	// The torn bytes are gone; appending continues from the good prefix.
	if err := r.AppendFacts("d", []ast.Atom{fact("p", ast.N(3))}, nil); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, rec2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	if rec2.Truncated || rec2.WALRecords != 2 {
		t.Fatalf("after repair: %+v", rec2)
	}
	if got := fmt.Sprint(r2.Facts("d")); got != "[p(1) p(3)]" {
		t.Fatalf("facts = %s", got)
	}
}

// A corrupted record body (CRC mismatch) likewise ends the log at the
// last good record rather than failing recovery.
func TestCorruptRecordEndsLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		var err error
		if i == 0 {
			err = s.AppendDatasetCreate("d", nil)
		} else {
			err = s.AppendFacts("d", []ast.Atom{fact("p", ast.N(float64(i)))}, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	wal := filepath.Join(dir, s.walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	rec1len := 8 + int(binary.LittleEndian.Uint32(data[0:]))
	data[rec1len+10] ^= 0xff // flip a byte inside record 2
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, rec := mustOpen(t, dir, Options{})
	defer r.Close()
	if !rec.Truncated || rec.WALRecords != 1 {
		t.Fatalf("recovered: %+v", rec)
	}
	if got := fmt.Sprint(r.Facts("d")); got != "[]" {
		t.Fatalf("facts = %s", got)
	}
}

// Dataset delete drops all durable state for the name; recreate starts
// empty.
func TestDatasetDeleteAndRecreate(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.AppendDatasetCreate("d", []ast.Atom{fact("p", ast.N(1))}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendViewRegister("d", ViewDef{Name: "v", Program: "v(X) :- p(X)."}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDatasetDelete("d"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDatasetCreate("d", []ast.Atom{fact("q", ast.N(2))}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, _ := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := fmt.Sprint(r.Facts("d")); got != "[q(2)]" {
		t.Fatalf("facts = %s", got)
	}
	if len(r.Views("d")) != 0 {
		t.Fatalf("views survived delete: %+v", r.Views("d"))
	}
}

// Update semantics mirror the server: a fact in both adds and dels is
// a no-op, retraction of a missing fact is a no-op, and a retracted fact
// leaves the state an insert-only history of the rest would have.
func TestFactUpdateSemantics(t *testing.T) {
	a, _ := mustOpen(t, "", Options{})
	if err := a.AppendDatasetCreate("d", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendFacts("d", []ast.Atom{fact("p", ast.N(1)), fact("p", ast.N(2))}, nil); err != nil {
		t.Fatal(err)
	}
	// p(1) in both lists: stays. p(9) retraction: no-op.
	if err := a.AppendFacts("d", []ast.Atom{fact("p", ast.N(1))}, []ast.Atom{fact("p", ast.N(1)), fact("p", ast.N(9))}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(a.Facts("d")); got != "[p(1) p(2)]" {
		t.Fatalf("facts = %s", got)
	}
	// Retract p(2): the state must equal a store's that saw p(2) come
	// and go the same way.
	if err := a.AppendFacts("d", nil, []ast.Atom{fact("p", ast.N(2))}); err != nil {
		t.Fatal(err)
	}
	b, _ := mustOpen(t, "", Options{})
	if err := b.AppendDatasetCreate("d", nil); err != nil {
		t.Fatal(err)
	}
	// Interleave an append so symbol ids line up with store a's history.
	if err := b.AppendFacts("d", []ast.Atom{fact("p", ast.N(1)), fact("p", ast.N(2))}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendFacts("d", nil, []ast.Atom{fact("p", ast.N(2))}); err != nil {
		t.Fatal(err)
	}
	if diff := a.DiffState(b); diff != "" || fmt.Sprint(a.Facts("d")) != "[p(1)]" {
		t.Fatalf("state after retraction: %s %v", diff, a.Facts("d"))
	}
}

// An ephemeral store ("" dir) keeps the same mirror with zero files.
func TestEphemeralStore(t *testing.T) {
	s, rec := mustOpen(t, "", Options{CheckpointEvery: 2})
	if rec.WALRecords != 0 {
		t.Fatalf("recovered: %+v", rec)
	}
	if err := s.AppendDatasetCreate("d", []ast.Atom{fact("p", ast.S("x"))}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts("d", []ast.Atom{fact("p", ast.S("y"))}, nil); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(s.Facts("d")); got != "[p(x) p(y)]" {
		t.Fatalf("facts = %s", got)
	}
	if c := s.Counters(); c.Appends != 2 || c.Bytes != 0 || c.Checkpoints != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Fsync policies parse and round-trip; unknown names error.
func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"", FsyncAlways}, {"always", FsyncAlways}, {"interval", FsyncInterval}, {"never", FsyncNever}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("want error for unknown policy")
	}
	if FsyncInterval.String() != "interval" || FsyncNever.String() != "never" || FsyncAlways.String() != "always" {
		t.Fatal("String round-trip broken")
	}
}

// Interval fsync exercises the background sync loop (correctness of
// the data path is identical; this pins setup/teardown).
func TestFsyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncInterval, FsyncInterval: time.Millisecond})
	if err := s.AppendDatasetCreate("d", []ast.Atom{fact("p", ast.N(1))}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, rec := mustOpen(t, dir, Options{})
	defer r.Close()
	if rec.WALRecords != 1 {
		t.Fatalf("recovered: %+v", rec)
	}
}
