package store

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ast"
)

// FuzzWAL feeds arbitrary bytes through the WAL replay path: torn
// writes, truncated tails, corrupted CRCs, hostile counts and symbol
// ids. The invariants are the recovery contract — never panic, report
// malformation only as ErrCorrupt, decode every record before a
// corruption deterministically, and round-trip cleanly when the input
// is a valid log (possibly with a torn suffix).
func FuzzWAL(f *testing.F) {
	// Seed with real logs so the fuzzer starts from structure-aware
	// inputs rather than pure noise.
	st := newSymtab()
	var good []byte
	for _, op := range []*iop{
		{kind: opDatasetCreate, ds: st.internStr("d"), adds: st.internFacts([]ast.Atom{
			ast.NewAtom("edge", ast.S("a"), ast.S("b")),
			ast.NewAtom("w", ast.N(1.5), ast.S("a")),
		})},
		{kind: opFacts, ds: st.internStr("d"),
			adds: st.internFacts([]ast.Atom{ast.NewAtom("edge", ast.S("b"), ast.S("c"))}),
			dels: st.internFacts([]ast.Atom{ast.NewAtom("edge", ast.S("a"), ast.S("b"))})},
		{kind: opViewRegister, ds: st.internStr("d"), view: st.internStr("v"),
			prog: "q(X) :- edge(X, Y).\n?- q.\n", ics: ":- edge(X, X).", optimized: true},
		{kind: opViewDrop, ds: st.internStr("d"), view: st.internStr("v")},
		{kind: opDatasetDelete, ds: st.internStr("d")},
	} {
		good = appendRecord(good, op, st.syms, 0)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])            // torn tail
	f.Add(append([]byte{}, good[8:]...)) // missing frame header
	corrupted := append([]byte{}, good...)
	corrupted[12] ^= 0xff
	f.Add(corrupted) // CRC mismatch in record 1
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // huge claimed length

	f.Fuzz(func(t *testing.T, data []byte) {
		st := newSymtab()
		res := replay(data, st)
		if res.truncated != nil && !errors.Is(res.truncated, ErrCorrupt) {
			t.Fatalf("truncation error does not wrap ErrCorrupt: %v", res.truncated)
		}
		if res.goodBytes > len(data) {
			t.Fatalf("goodBytes %d > input %d", res.goodBytes, len(data))
		}
		if len(res.ops) != res.records {
			t.Fatalf("ops %d != records %d", len(res.ops), res.records)
		}
		// Determinism: replaying the good prefix alone must yield the
		// same operations and a clean tail.
		st2 := newSymtab()
		res2 := replay(data[:res.goodBytes], st2)
		if res2.records != res.records || res2.truncated != nil {
			t.Fatalf("good prefix re-replay: records %d vs %d, truncated %v",
				res2.records, res.records, res2.truncated)
		}
		// Re-encoding every decoded op against a fresh symtab must
		// produce a log that replays to the same record count — the
		// decode side accepts exactly what the encode side emits.
		st3 := newSymtab()
		var reenc []byte
		for _, op := range res.ops {
			pub := publicFields(op, st2)
			n := len(st3.syms)
			op2 := reintern(pub, st3)
			reenc = appendRecord(reenc, op2, st3.syms[n:], n)
		}
		res3 := replay(reenc, newSymtab())
		if res3.records != res.records || res3.truncated != nil {
			t.Fatalf("re-encoded log: records %d vs %d, truncated %v",
				res3.records, res.records, res3.truncated)
		}
	})
}

// publicFields lifts a decoded op to symbol-free form so it can be
// re-interned against a different symtab.
type pubOp struct {
	kind       opKind
	ds, view   string
	prog, ics  string
	optimized  bool
	adds, dels []ast.Atom
}

func publicFields(op *iop, st *symtab) pubOp {
	p := pubOp{kind: op.kind, prog: op.prog, ics: op.ics, optimized: op.optimized}
	if op.kind != opSymbols && op.kind != opEnd {
		p.ds = st.str(op.ds)
	}
	if op.kind == opViewRegister || op.kind == opViewDrop {
		p.view = st.str(op.view)
	}
	for _, f := range op.adds {
		p.adds = append(p.adds, st.atom(f))
	}
	for _, f := range op.dels {
		p.dels = append(p.dels, st.atom(f))
	}
	return p
}

func reintern(p pubOp, st *symtab) *iop {
	op := &iop{kind: p.kind, ds: st.internStr(p.ds), prog: p.prog, ics: p.ics, optimized: p.optimized}
	if p.kind == opViewRegister || p.kind == opViewDrop {
		op.view = st.internStr(p.view)
	}
	op.adds = st.internFacts(p.adds)
	op.dels = st.internFacts(p.dels)
	return op
}

// FuzzSegment drives arbitrary bytes through the checkpoint loader (the
// name is the one the fuzz jobs run): never a panic, every failure an
// ErrCorrupt, a checkpoint that loads re-encodes to a canonical image
// that loads back to itself — encode(load(x)) is a fixpoint — and no cut
// of it between two records loads.
func FuzzSegment(f *testing.F) {
	s, _, err := Open(f.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	_ = s.AppendDatasetCreate("gone", []ast.Atom{ast.NewAtom("p", ast.S("x"))})
	_ = s.AppendDatasetCreate("d", []ast.Atom{
		ast.NewAtom("edge", ast.S("a"), ast.S("b")),
		ast.NewAtom("w", ast.N(2.25)),
	})
	_ = s.AppendViewRegister("d", ViewDef{Name: "v", Program: "q(X) :- edge(X, Y).\n?- q.\n", Optimized: true})
	_ = s.AppendDatasetDelete("gone")
	good := s.encodeCheckpoint()
	f.Add(good)
	f.Add(good[:len(good)-6])  // torn
	f.Add(good[:len(good)-10]) // cut before the end record
	mangled := append([]byte{}, good...)
	mangled[10] ^= 0x40
	f.Add(mangled) // CRC mismatch
	f.Add([]byte("sqos\x02\x00\x00\x00"))
	f.Add([]byte{})

	load := func(data []byte) (*Store, error) {
		fresh := &Store{syms: newSymtab(), datasets: map[string]*dsState{}}
		_, err := fresh.loadCheckpoint(data)
		return fresh, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := load(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("checkpoint error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		for off := 0; ; {
			_, size, _ := decodeRecord(data[off:])
			if off += size; off >= len(data) {
				break
			}
			if _, err := load(data[:off]); err == nil {
				t.Fatalf("checkpoint cut after %d of %d bytes loads", off, len(data))
			}
		}
		enc1 := fresh.encodeCheckpoint()
		again, err := load(enc1)
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to load: %v", err)
		}
		if diff := fresh.DiffState(again); diff != "" {
			t.Fatalf("re-encoded checkpoint loads to another state: %s", diff)
		}
		if enc2 := again.encodeCheckpoint(); !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode/load/encode is not a fixpoint: %d vs %d bytes", len(enc1), len(enc2))
		}
	})
}
