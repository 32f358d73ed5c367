package store

// Record encoding, the store's one on-disk format. The WAL is a flat
// sequence of framed records, each one complete logical operation
// (dataset create/delete, fact assert/retract batch, view
// register/drop); a checkpoint (checkpoint.go) is a file of the same
// records, read by the same decoder:
//
//	uint32 LE  payload length
//	uint32 LE  CRC32 (IEEE) of the payload
//	payload
//
// The payload starts with the operation kind, then the symbol
// definitions the record introduces (constants and names are interned
// to dense uint32 ids — the same representation the compiled-plan
// engine uses for rows — and a symbol is defined exactly once, by the
// first record that references it), then the operation fields with
// every term, predicate, dataset, and view name as a symbol id:
//
//	byte     opKind
//	uvarint  nsyms
//	  nsyms × { uvarint id, byte kind, num: 8B LE float bits | str: uvarint len + bytes }
//	...op fields (uvarint symbol ids, uvarint counts, length-prefixed
//	   source strings for view programs)...
//
// A symbols record (opSymbols) is the definitions alone, with no
// operation fields, and an end record (opEnd) closes a checkpoint;
// only checkpoints write either.
//
// One record is one atomic unit: either its CRC verifies and the whole
// operation (including its symbol definitions) applies, or recovery
// stops before it. A record that fails to decode — torn tail, bad
// CRC, truncated payload, dangling symbol reference — ends replay at
// the last good record; decodeRecord reports the reason as an error
// wrapping ErrCorrupt and never panics on arbitrary bytes (FuzzWAL
// pins this).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/ast"
)

// ErrCorrupt is wrapped by every WAL and checkpoint decoding error
// caused by malformed bytes (as opposed to I/O failures). Recovery
// treats a corrupt record as the end of the log and a corrupt
// checkpoint as a failed Open; FuzzWAL and FuzzSegment assert arbitrary
// input yields this error or decodes cleanly, never panics.
var ErrCorrupt = errors.New("store: corrupt data")

// maxRecordLen bounds one WAL record; a frame claiming more is
// corrupt. Generous: the largest legitimate records are dataset
// creates, ~20 bytes per fact.
const maxRecordLen = 64 << 20

type opKind byte

const (
	opDatasetCreate opKind = 1
	opDatasetDelete opKind = 2
	opFacts         opKind = 3
	opViewRegister  opKind = 4
	opViewDrop      opKind = 5
	opSymbols       opKind = 6
	opEnd           opKind = 7
)

// symKind discriminates symbol-table entries.
type symKind byte

const (
	symStr symKind = 0 // string constant, predicate, dataset or view name
	symNum symKind = 1 // numeric constant
)

type symbol struct {
	kind symKind
	name string  // symStr
	val  float64 // symNum
}

// symtab interns constants and names to dense uint32 ids. Ids are
// assigned in first-reference order and never reused or compacted, so
// a store that replays the same operation sequence always assigns the
// same ids — the property that makes recovered rows, which are ids,
// bit-identical to the uninterrupted run's.
type symtab struct {
	byKey map[string]uint32
	syms  []symbol
}

func newSymtab() *symtab {
	return &symtab{byKey: make(map[string]uint32, 64)}
}

func symKey(s symbol) string {
	if s.kind == symNum {
		return "#" + fmt.Sprintf("%g", s.val)
	}
	return "$" + s.name
}

// intern returns the id of s, assigning the next dense id on first
// use; isNew reports whether the id was just assigned.
func (st *symtab) intern(s symbol) (id uint32, isNew bool) {
	k := symKey(s)
	if id, ok := st.byKey[k]; ok {
		return id, false
	}
	id = uint32(len(st.syms))
	st.syms = append(st.syms, s)
	st.byKey[k] = id
	return id, true
}

func (st *symtab) internTerm(t ast.Term) uint32 {
	var id uint32
	if t.Kind == ast.Num {
		id, _ = st.intern(symbol{kind: symNum, val: t.Val})
	} else {
		id, _ = st.intern(symbol{kind: symStr, name: t.Name})
	}
	return id
}

func (st *symtab) internStr(s string) uint32 {
	id, _ := st.intern(symbol{kind: symStr, name: s})
	return id
}

// rollback discards symbols with id >= n (an append that failed after
// interning must not leave ids the log never defined).
func (st *symtab) rollback(n int) {
	for _, s := range st.syms[n:] {
		delete(st.byKey, symKey(s))
	}
	st.syms = st.syms[:n]
}

// install adds a symbol definition read from the log at an explicit
// id: either it matches an existing entry exactly, or it is the next
// dense id and a symbol the table does not hold yet. Anything else is
// corruption.
func (st *symtab) install(id uint32, s symbol) error {
	if int(id) < len(st.syms) {
		have := st.syms[id]
		if have.kind != s.kind || have.name != s.name ||
			math.Float64bits(have.val) != math.Float64bits(s.val) {
			return fmt.Errorf("%w: symbol %d redefined", ErrCorrupt, id)
		}
		return nil
	}
	if int(id) != len(st.syms) {
		return fmt.Errorf("%w: symbol id gap (%d, have %d)", ErrCorrupt, id, len(st.syms))
	}
	k := symKey(s)
	if _, dup := st.byKey[k]; dup {
		return fmt.Errorf("%w: symbol %d duplicates %d", ErrCorrupt, id, st.byKey[k])
	}
	st.syms = append(st.syms, s)
	st.byKey[k] = id
	return nil
}

func (st *symtab) valid(id uint32) bool { return int(id) < len(st.syms) }

func (st *symtab) term(id uint32) ast.Term {
	s := st.syms[id]
	if s.kind == symNum {
		return ast.N(s.val)
	}
	return ast.S(s.name)
}

func (st *symtab) str(id uint32) string { return st.syms[id].name }

// ifact is one ground atom in interned form: a predicate symbol and a
// flat row of term symbols — the on-disk twin of the engine's interned
// []uint32 rows.
type ifact struct {
	pred uint32
	row  []uint32
}

// iop is one logical operation in interned form, the unit of WAL
// append and replay.
type iop struct {
	kind      opKind
	ds        uint32 // dataset name symbol
	view      uint32 // view name symbol (opView*)
	prog, ics string // view sources (opViewRegister)
	optimized bool
	adds      []ifact // opDatasetCreate (initial facts) and opFacts
	dels      []ifact // opFacts
}

// internFacts converts ground atoms to interned facts, assigning
// symbol ids as needed.
func (st *symtab) internFacts(atoms []ast.Atom) []ifact {
	out := make([]ifact, len(atoms))
	for i, a := range atoms {
		f := ifact{pred: st.internStr(a.Pred), row: make([]uint32, len(a.Args))}
		for j, t := range a.Args {
			f.row[j] = st.internTerm(t)
		}
		out[i] = f
	}
	return out
}

func (st *symtab) atom(f ifact) ast.Atom {
	args := make([]ast.Term, len(f.row))
	for j, id := range f.row {
		args[j] = st.term(id)
	}
	return ast.NewAtom(st.str(f.pred), args...)
}

// --- record encoding --------------------------------------------------

func appendSymDef(buf []byte, id uint32, s symbol) []byte {
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = append(buf, byte(s.kind))
	if s.kind == symNum {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.val))
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(s.name)))
		buf = append(buf, s.name...)
	}
	return buf
}

func appendFacts(buf []byte, facts []ifact) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(facts)))
	for _, f := range facts {
		buf = binary.AppendUvarint(buf, uint64(f.pred))
		buf = binary.AppendUvarint(buf, uint64(len(f.row)))
		for _, id := range f.row {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendRecord appends op to buf as one framed record, its payload
// prefixed by the definitions of news, the symbols with ids first,
// first+1, … that this record introduces.
func appendRecord(buf []byte, op *iop, news []symbol, first int) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, byte(op.kind))
	buf = binary.AppendUvarint(buf, uint64(len(news)))
	for i, s := range news {
		buf = appendSymDef(buf, uint32(first+i), s)
	}
	if op.kind != opSymbols && op.kind != opEnd {
		buf = binary.AppendUvarint(buf, uint64(op.ds))
	}
	switch op.kind {
	case opDatasetCreate:
		buf = appendFacts(buf, op.adds)
	case opFacts:
		buf = appendFacts(buf, op.adds)
		buf = appendFacts(buf, op.dels)
	case opViewRegister:
		buf = binary.AppendUvarint(buf, uint64(op.view))
		buf = appendString(buf, op.prog)
		buf = appendString(buf, op.ics)
		if op.optimized {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case opViewDrop:
		buf = binary.AppendUvarint(buf, uint64(op.view))
	}
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// --- record decoding --------------------------------------------------

// byteReader walks a payload with explicit bounds checks; every read
// failure is ErrCorrupt.
type byteReader struct {
	data []byte
	off  int
	err  error
}

func (r *byteReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("unexpected end at %d", r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.fail("short read (%d bytes at %d)", n, r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// count reads a uvarint element count and sanity-bounds it against the
// bytes remaining (each element costs at least min bytes), so corrupt
// counts cannot drive huge allocations.
func (r *byteReader) count(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64((len(r.data)-r.off)/min+1) {
		r.fail("implausible count %d at %d", n, r.off)
		return 0
	}
	return int(n)
}

func (r *byteReader) string() string {
	n := r.count(1)
	return string(r.bytes(n))
}

func (r *byteReader) sym(st *symtab) uint32 {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > math.MaxUint32 || !st.valid(uint32(v)) {
		r.fail("dangling symbol id %d", v)
		return 0
	}
	return uint32(v)
}

// name reads a symbol id that names a dataset, view or predicate: a
// string symbol.
func (r *byteReader) name(st *symtab) uint32 {
	id := r.sym(st)
	if r.err == nil && st.syms[id].kind != symStr {
		r.fail("symbol %d is not a name", id)
	}
	return id
}

func (r *byteReader) facts(st *symtab) []ifact {
	n := r.count(2)
	if r.err != nil {
		return nil
	}
	out := make([]ifact, 0, n)
	for i := 0; i < n; i++ {
		f := ifact{pred: r.name(st)}
		arity := r.count(1)
		if r.err != nil {
			return nil
		}
		f.row = make([]uint32, arity)
		for j := range f.row {
			f.row[j] = r.sym(st)
		}
		out = append(out, f)
	}
	if r.err != nil {
		return nil
	}
	return out
}

// decodePayload decodes one record payload, installing its symbol
// definitions into st. On error the symtab may hold a prefix of the
// record's definitions; callers treat the whole record as unapplied
// (recovery stops, so the extra ids are never referenced).
func decodePayload(payload []byte, st *symtab) (*iop, error) {
	r := &byteReader{data: payload}
	op := &iop{kind: opKind(r.byte())}
	switch op.kind {
	case opDatasetCreate, opDatasetDelete, opFacts, opViewRegister, opViewDrop, opSymbols, opEnd:
	default:
		return nil, fmt.Errorf("%w: unknown op kind %d", ErrCorrupt, op.kind)
	}
	nsyms := r.count(2)
	for i := 0; i < nsyms && r.err == nil; i++ {
		id := r.uvarint()
		kind := symKind(r.byte())
		var s symbol
		switch kind {
		case symNum:
			b := r.bytes(8)
			if r.err != nil {
				break
			}
			s = symbol{kind: symNum, val: math.Float64frombits(binary.LittleEndian.Uint64(b))}
		case symStr:
			s = symbol{kind: symStr, name: r.string()}
		default:
			r.fail("unknown symbol kind %d", kind)
		}
		if r.err != nil {
			break
		}
		if id > math.MaxUint32 {
			r.fail("symbol id overflow")
			break
		}
		if err := st.install(uint32(id), s); err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if op.kind == opSymbols || op.kind == opEnd {
		return op, nil
	}
	op.ds = r.name(st)
	switch op.kind {
	case opDatasetCreate:
		op.adds = r.facts(st)
	case opDatasetDelete:
	case opFacts:
		op.adds = r.facts(st)
		op.dels = r.facts(st)
	case opViewRegister:
		op.view = r.name(st)
		op.prog = r.string()
		op.ics = r.string()
		op.optimized = r.byte() != 0
	case opViewDrop:
		op.view = r.name(st)
	}
	if r.err != nil {
		return nil, r.err
	}
	return op, nil
}

// decodeRecord decodes the record at the front of data, returning the
// payload and total frame size. A frame that runs past the end of data
// is reported as (nil, 0, nil): a torn tail, distinct from corruption.
func decodeRecord(data []byte) (payload []byte, size int, err error) {
	if len(data) < 8 {
		return nil, 0, nil // torn or clean end
	}
	n := binary.LittleEndian.Uint32(data[0:])
	if n > maxRecordLen {
		return nil, 0, fmt.Errorf("%w: record length %d exceeds cap", ErrCorrupt, n)
	}
	if len(data)-8 < int(n) {
		return nil, 0, nil // torn tail: payload not fully on disk
	}
	want := binary.LittleEndian.Uint32(data[4:])
	payload = data[8 : 8+int(n)]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, 8 + int(n), nil
}

// replayResult summarizes one WAL replay.
type replayResult struct {
	ops       []*iop
	goodBytes int   // offset of the first byte not covered by a decoded record
	records   int   // records decoded
	truncated error // nil for a clean tail; the decode error otherwise
}

// replay decodes records from data front to back, installing symbols
// into st, until the data ends or a record fails to decode. It never
// fails: a torn or corrupt suffix terminates the log at the last good
// record, which is exactly the recovery semantics (an operation is
// durable once its complete record is on disk, and a partially written
// tail is as if the operation never happened).
func replay(data []byte, st *symtab) replayResult {
	var res replayResult
	for res.goodBytes < len(data) {
		payload, size, err := decodeRecord(data[res.goodBytes:])
		if err != nil {
			res.truncated = err
			return res
		}
		if size == 0 {
			if len(data)-res.goodBytes > 0 {
				res.truncated = fmt.Errorf("%w: torn record at %d", ErrCorrupt, res.goodBytes)
			}
			return res
		}
		op, err := decodePayload(payload, st)
		if err != nil {
			res.truncated = err
			return res
		}
		res.ops = append(res.ops, op)
		res.goodBytes += size
		res.records++
	}
	return res
}
