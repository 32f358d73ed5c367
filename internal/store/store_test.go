package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
	if len(rec.Ops) != 0 {
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
	if len(rec2.Ops) != 4 || rec2.Ops[0].Kind != OpDatasetCreate || rec2.Ops[2].Kind != OpViewRegister {
		t.Fatalf("ops = %+v", rec2.Ops)
	}
}

// Checkpointing moves the state into a checkpoint, truncates the WAL,
// and recovery from the checkpoint alone is bit-identical — interned rows
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
	// A checkpoint of the retired segment format that the manifest no
	// longer names (an older version crashed mid-checkpoint) is garbage.
	leftover := filepath.Join(dir, "seg-000001.sqos")
	if err := os.WriteFile(leftover, []byte("sqos"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, rec := mustOpen(t, dir, Options{})
	defer r.Close()
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("leftover segment after recovery: %v", err)
	}
	if len(rec.Ops) != 3 || rec.Ops[0].Kind != OpDatasetCreate || rec.Ops[0].Dataset != "big" ||
		len(rec.Ops[0].Adds) != 400 || rec.Ops[1].Kind != OpViewRegister {
		t.Fatalf("checkpoint ops: %+v", rec.Ops)
	}
	if rec.WALRecords != 1 || rec.Ops[2].Kind != OpFacts {
		t.Fatalf("tail: %+v", rec)
	}
	if diff := s.DiffState(r); diff != "" {
		t.Fatalf("recovered state differs: %s", diff)
	}
	if rows := r.Rows("big", "n"); len(rows) != 401 {
		t.Fatalf("recovered %d rows of n, want 401", len(rows))
	}
}

// TestCheckpointReproducesStore: a checkpoint recovers to the state of
// a store that ran the same operations without one — interned rows
// included — and the next record the recovered store appends is the
// one the uninterrupted store appends, byte for byte. That holds also
// when every dataset was deleted before the checkpoint: the checkpoint
// still defines their symbols, so no id is reassigned.
func TestCheckpointReproducesStore(t *testing.T) {
	for _, deleteAll := range []bool{false, true} {
		t.Run(fmt.Sprintf("deleteAll=%v", deleteAll), func(t *testing.T) {
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			run := func(s *Store) {
				must(s.AppendDatasetCreate("g", []ast.Atom{edge("a", "b"), edge("b", "c"), fact("weight", ast.S("a"), ast.N(1.5))}))
				must(s.AppendDatasetCreate("h", []ast.Atom{fact("flag"), fact("p", ast.N(-2))}))
				must(s.AppendViewRegister("g", ViewDef{Name: "tc", Program: "tc(X, Y) :- edge(X, Y).\n?- tc.\n", ICs: ":- edge(X, X).", Optimized: true}))
				must(s.AppendViewRegister("g", ViewDef{Name: "bare", Program: "b(X) :- edge(X, Y).\n?- b.\n"}))
				must(s.AppendFacts("g", []ast.Atom{edge("c", "d")}, []ast.Atom{edge("a", "b")}))
				if deleteAll {
					must(s.AppendDatasetDelete("g"))
					must(s.AppendDatasetDelete("h"))
				}
			}
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, Options{})
			run(s)
			must(s.Checkpoint())
			must(s.Close())
			live, _ := mustOpen(t, t.TempDir(), Options{})
			defer live.Close()
			run(live)

			r, rec := mustOpen(t, dir, Options{})
			defer r.Close()
			if rec.WALRecords != 0 {
				t.Fatalf("recovered a tail after a checkpoint: %+v", rec)
			}
			for _, op := range rec.Ops {
				if op.Kind != OpDatasetCreate && op.Kind != OpViewRegister {
					t.Fatalf("recovered a tail op after a checkpoint: %+v", op)
				}
			}
			if diff := live.DiffState(r); diff != "" {
				t.Fatalf("recovered state differs: %s", diff)
			}
			// A record that reuses old symbols and brings a new one.
			next := func(s *Store) []byte {
				t.Helper()
				at := s.walSize
				must(s.AppendDatasetCreate("k", []ast.Atom{edge("b", "c"), edge("c", "new"), fact("p", ast.N(-2))}))
				data, err := os.ReadFile(walPath(s))
				must(err)
				return data[at:]
			}
			if want, got := next(live), next(r); !bytes.Equal(want, got) {
				t.Fatalf("next record after recovery:\n got %x\nwant %x", got, want)
			}
		})
	}
}

// TestCheckpointSplitsRecords: a dataset too big for one record is
// written as several fact records, and its symbols as several symbols
// records, each payload under ckptRecordLen, and recovers whole.
func TestCheckpointSplitsRecords(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	var facts []ast.Atom
	for i := 0; i < 12000; i++ {
		facts = append(facts, fact("n", ast.N(float64(i)), ast.S(fmt.Sprintf("v%d", i%7))))
	}
	if err := s.AppendDatasetCreate("big", facts); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, s.ckptName))
	if err != nil {
		t.Fatal(err)
	}
	st, kinds := newSymtab(), map[opKind]int{}
	for off := 0; off < len(data); {
		payload, size, err := decodeRecord(data[off:])
		if err != nil || size == 0 {
			t.Fatalf("record at %d: size %d, %v", off, size, err)
		}
		if len(payload) >= ckptRecordLen {
			t.Fatalf("record at %d: payload of %d bytes", off, len(payload))
		}
		op, err := decodePayload(payload, st)
		if err != nil {
			t.Fatal(err)
		}
		kinds[op.kind]++
		off += size
	}
	if kinds[opFacts] < 3 || kinds[opSymbols] < 2 || kinds[opDatasetCreate] != 1 || kinds[opEnd] != 1 {
		t.Fatalf("records by kind: %v; want >= 3 fact records, >= 2 symbols records, 1 create, 1 end", kinds)
	}
	r, _ := mustOpen(t, dir, Options{})
	defer r.Close()
	if diff := s.DiffState(r); diff != "" {
		t.Fatalf("recovered state differs: %s", diff)
	}
	if n := len(r.Facts("big")); n != len(facts) {
		t.Fatalf("recovered %d facts, want %d", n, len(facts))
	}
}

// TestCheckpointReadIsStrict: a checkpoint must decode whole and end
// with its one end record. A torn or corrupted one, one cut between any
// two records, an empty one and one with a second end record fail Open
// with ErrCorrupt, and a checkpoint in the retired "sqos" segment format
// fails it with an error naming the format; Open returns no store
// either way.
func TestCheckpointReadIsStrict(t *testing.T) {
	src := t.TempDir()
	s, _ := mustOpen(t, src, Options{})
	if err := s.AppendDatasetCreate("d", []ast.Atom{fact("p", ast.N(1)), fact("p", ast.N(2))}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	good, err := os.ReadFile(filepath.Join(src, s.ckptName))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-1] ^= 0xff
	end := good[len(good)-10:]
	type strictCase struct {
		name, want string
		data       []byte
	}
	cases := []strictCase{
		{"torn", "torn record", good[:len(good)-3]},
		{"corrupt", "CRC mismatch", flipped},
		{"two-ends", "end record at 4 of 5", append(append([]byte{}, good...), end...)},
		{"sqos", `seg-000002.sqos is a "sqos" segment`, append([]byte("sqos\x02\x00\x00\x00"), make([]byte, 16)...)},
	}
	// Cut before each record: symbols, create, facts, end.
	for off, i := 0, 0; off < len(good); i++ {
		cases = append(cases, strictCase{fmt.Sprintf("cut-%d", i), fmt.Sprintf("no end record after %d records", i), good[:off]})
		_, size, _ := decodeRecord(good[off:])
		off += size
	}
	if len(cases) != 8 {
		t.Fatalf("checkpoint of %d records, want 4", len(cases)-4)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			name := s.ckptName
			if tc.name == "sqos" {
				name = "seg-000002.sqos"
			}
			m := manifest{seq: 2, ckpt: name, wal: s.walName}
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(m.render()), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			st, rec, err := Open(dir, Options{})
			if st != nil || rec != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, %v, %v; want no store and an error naming %q", st, rec, err, tc.want)
			}
			if corrupt := errors.Is(err, ErrCorrupt); corrupt != (tc.name != "sqos") {
				t.Fatalf("errors.Is(%v, ErrCorrupt) = %v", err, corrupt)
			}
		})
	}
}

// TestEmptiedPredicateChangesArity: once every fact of a predicate
// leaves, the predicate may come back at another arity — the server's
// dataset allows it, and so must the mirror a checkpoint is written
// from, or the checkpoint drops the new facts.
func TestEmptiedPredicateChangesArity(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.AppendDatasetCreate("d", []ast.Atom{fact("p", ast.N(1), ast.N(2))}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts("d", []ast.Atom{fact("p", ast.N(3))}, []ast.Atom{fact("p", ast.N(1), ast.N(2))}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts("d", nil, []ast.Atom{fact("p", ast.N(3))}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFacts("d", []ast.Atom{fact("p", ast.N(4), ast.N(5), ast.N(6))}, nil); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(s.Facts("d")); got != "[p(4, 5, 6)]" {
		t.Fatalf("facts = %s", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, _ := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := fmt.Sprint(r.Facts("d")); got != "[p(4, 5, 6)]" {
		t.Fatalf("recovered facts = %s", got)
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
	a, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer a.Close()
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
	b, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer b.Close()
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

// TestApplyFactsAsSet: a batch deletes every retraction and then adds
// every insertion, so a fact in both lists ends present whether or not
// it was there before, and a predicate that loses its last row in the
// batch comes back at the arity of its insertions.
func TestApplyFactsAsSet(t *testing.T) {
	p := func(vs ...float64) ast.Atom {
		args := make([]ast.Term, len(vs))
		for i, v := range vs {
			args[i] = ast.N(v)
		}
		return fact("p", args...)
	}
	q := func(v float64) ast.Atom { return fact("q", ast.N(v)) }
	for _, c := range []struct {
		name               string
		before, adds, dels []ast.Atom
		want               []ast.Atom // the state after, in Rows order
	}{
		{"both lists, present before", []ast.Atom{p(1), p(2)}, []ast.Atom{p(1)}, []ast.Atom{p(1)}, []ast.Atom{p(1), p(2)}},
		{"both lists, absent before", []ast.Atom{p(1)}, []ast.Atom{p(3)}, []ast.Atom{p(3)}, []ast.Atom{p(1), p(3)}},
		{"last row deleted and re-added", []ast.Atom{p(1), q(5)}, []ast.Atom{q(5)}, []ast.Atom{q(5)}, []ast.Atom{p(1), q(5)}},
		{"every row deleted, another arity added", []ast.Atom{p(1), p(2), q(5)}, []ast.Atom{p(1, 2), p(3, 4)}, []ast.Atom{p(1), p(2)},
			[]ast.Atom{p(1, 2), p(3, 4), q(5)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever})
			defer s.Close()
			if err := s.AppendDatasetCreate("d", c.before); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendFacts("d", c.adds, c.dels); err != nil {
				t.Fatal(err)
			}
			want := map[string][][]uint32{}
			for _, f := range s.syms.internFacts(c.want) { // every symbol is known: no new id
				pred := s.syms.str(f.pred)
				want[pred] = append(want[pred], f.row)
			}
			for _, pred := range []string{"p", "q"} {
				if got := s.Rows("d", pred); fmt.Sprint(got) != fmt.Sprint(want[pred]) {
					t.Fatalf("Rows(%s) = %v, want %v (%v)", pred, got, want[pred], c.want)
				}
			}
		})
	}
}

// TestRecoveredOps: Open returns, per checkpointed dataset in name
// order, one create carrying every fact in Rows order — a predicate
// split over several fact records included — then the dataset's views
// by name, and then the WAL tail in log order: the list the server
// replays.
func TestRecoveredOps(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var edges []ast.Atom
	for i := 0; i < 5000; i++ {
		edges = append(edges, edge(fmt.Sprintf("n%d", i%97), fmt.Sprintf("n%d", i)))
	}
	must(s.AppendDatasetCreate("b", []ast.Atom{fact("flag")}))
	must(s.AppendDatasetCreate("a", append(edges, fact("w", ast.N(2)))))
	vz := ViewDef{Name: "zz", Program: "r(X) :- edge(X, Y).\n?- r.\n", Optimized: true}
	va := ViewDef{Name: "aa", Program: "s(X) :- w(X).\n?- s.\n", ICs: ":- w(X), X < 0."}
	must(s.AppendViewRegister("a", vz))
	must(s.AppendViewRegister("a", va))
	must(s.Checkpoint())
	var want []Op
	for _, name := range []string{"a", "b"} {
		want = append(want, Op{Kind: OpDatasetCreate, Dataset: name, Adds: s.Facts(name)})
		for _, v := range s.Views(name) {
			want = append(want, Op{Kind: OpViewRegister, Dataset: name, View: v})
		}
	}
	tail := []Op{
		{Kind: OpFacts, Dataset: "a", Adds: []ast.Atom{edge("x", "y")}, Dels: []ast.Atom{fact("w", ast.N(2))}},
		{Kind: OpViewDrop, Dataset: "a", View: ViewDef{Name: "zz"}},
		{Kind: OpDatasetDelete, Dataset: "b"},
		{Kind: OpDatasetCreate, Dataset: "c", Adds: []ast.Atom{fact("flag")}},
	}
	must(s.AppendFacts("a", tail[0].Adds, tail[0].Dels))
	must(s.AppendViewDrop("a", "zz"))
	must(s.AppendDatasetDelete("b"))
	must(s.AppendDatasetCreate("c", tail[3].Adds))
	ckpt := s.ckptName
	must(s.Close())

	data, err := os.ReadFile(filepath.Join(dir, ckpt))
	must(err)
	factRecords := 0
	for _, op := range replay(data, newSymtab()).ops {
		if op.kind == opFacts && len(op.adds) > 0 && len(op.adds[0].row) == 2 {
			factRecords++
		}
	}
	if factRecords < 2 {
		t.Fatalf("edge spans %d fact records of the checkpoint, want at least 2", factRecords)
	}

	r, rec := mustOpen(t, dir, Options{})
	defer r.Close()
	want = append(want, tail...)
	if got, w := fmt.Sprintf("%+v", rec.Ops), fmt.Sprintf("%+v", want); got != w {
		t.Fatalf("recovered ops differ:\n got %.600s\nwant %.600s", got, w)
	}
	if len(rec.Ops[0].Adds) != len(edges)+1 || rec.Ops[1].View.Name != "aa" || rec.Ops[2].View.Name != "zz" {
		t.Fatalf("recovered ops: create a with %d facts, then views %q %q", len(rec.Ops[0].Adds), rec.Ops[1].View.Name, rec.Ops[2].View.Name)
	}
}

// A store has a directory: Open("") fails and opens nothing.
func TestOpenWithoutDirFails(t *testing.T) {
	if s, _, err := Open("", Options{}); err == nil {
		s.Close()
		t.Fatal(`Open("") succeeded; want an error`)
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
