package eval

// Interned data layout of the engine. Constant terms are assigned dense
// uint32 ids by an interner, tuples become flat []uint32 rows, and both
// the per-relation duplicate set and the bound-position hash indexes key
// on integer hashes with exact row comparison — no string is built or
// hashed anywhere on the join path. The interner is an internal boundary:
// nothing outside the engine ever sees an id.
//
// Interning is two-level. The constants of a database are interned
// once per database snapshot into a frozen base (base.go); each
// evaluation layers a small private overlay on top for the constants
// only its program mentions, so preparing an evaluation costs
// O(rules), not O(EDB).

import (
	"strings"
	"sync"

	"repro/internal/ast"
)

// interner maps constant terms to dense uint32 ids. A root interner
// (under == nil) owns ids [0, len(terms)); an overlay owns the ids from
// len(under.terms) up and resolves everything below through under,
// which must be frozen. An interner is built single-threaded and
// read-only afterwards, except for the lazy key cache used when results
// are converted back to a public DB after the fixpoint.
type interner struct {
	under *interner // frozen lower level; nil for a root interner
	off   uint32    // len(under.terms): the first id this level owns
	ids   map[ast.Term]uint32
	terms []ast.Term
	keys  []string // Term.Key cache, aligned with terms; complete once frozen
}

func newInterner() *interner {
	return &interner{ids: make(map[ast.Term]uint32, 64)}
}

// overlay returns a private interner layered on the frozen interner
// under: terms under knows keep their ids, new ones get ids past them.
func (under *interner) overlay() *interner {
	return &interner{under: under, off: uint32(len(under.terms)), ids: map[ast.Term]uint32{}}
}

// freeze renders every term's key, after which the interner is
// immutable and safe to share between goroutines and overlays.
func (in *interner) freeze() {
	in.keys = make([]string, len(in.terms))
	for i, t := range in.terms {
		in.keys[i] = t.Key()
	}
}

// intern returns the id of t, assigning the next dense id on first use.
func (in *interner) intern(t ast.Term) uint32 {
	if in.under != nil {
		if id, ok := in.under.ids[t]; ok {
			return id
		}
	}
	if id, ok := in.ids[t]; ok {
		return id
	}
	id := in.off + uint32(len(in.terms))
	in.terms = append(in.terms, t)
	in.ids[t] = id
	return id
}

// term is the inverse of intern.
func (in *interner) term(id uint32) ast.Term {
	if id < in.off {
		return in.under.terms[id]
	}
	return in.terms[id-in.off]
}

// termKey returns Term.Key for an id, rendering each distinct term at
// most once. Ids of the frozen level read its precomputed keys; the
// lazy fill for this level's own ids is single-threaded (result
// conversion and round barriers).
func (in *interner) termKey(id uint32) string {
	if id < in.off {
		return in.under.keys[id]
	}
	id -= in.off
	if len(in.keys) < len(in.terms) {
		in.keys = append(in.keys, make([]string, len(in.terms)-len(in.keys))...)
	}
	k := in.keys[id]
	if k == "" {
		k = in.terms[id].Key()
		in.keys[id] = k
	}
	return k
}

// rowKey renders the Tuple.Key of an interned row (the exact string
// Tuple.Key would produce), reusing b as scratch.
func (in *interner) rowKey(b *strings.Builder, row []uint32) string {
	b.Reset()
	for i, id := range row {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(in.termKey(id))
	}
	return b.String()
}

// hashU32s is FNV-1a over 32-bit words.
func hashU32s(vals []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

func rowsEqual(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pow2(n int) int {
	s := 16
	for s < n {
		s <<= 1
	}
	return s
}

// rowHash is an open-addressed hash set over the rows of a flat
// []uint32 store (arity values per row). It stores row indices and
// compares rows by value, so membership answers are exact — a hash
// collision costs a comparison, never a wrong answer. find is
// read-only and safe for concurrent readers of a frozen store;
// insertLookup/place mutate and require a single writer.
type rowHash struct {
	data   *[]uint32 // backing flat row store
	arity  int
	n      int
	hashes []uint64
	idxs   []int32 // row index per slot; -1 = empty
}

func (h *rowHash) rowAt(i int32) []uint32 {
	d := *h.data
	s := int(i) * h.arity
	return d[s : s+h.arity]
}

// find reports membership without mutating the table.
func (h *rowHash) find(vals []uint32) bool {
	if h.n == 0 {
		return false
	}
	mask := len(h.idxs) - 1
	hv := hashU32s(vals)
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		idx := h.idxs[i]
		if idx < 0 {
			return false
		}
		if h.hashes[i] == hv && rowsEqual(h.rowAt(idx), vals) {
			return true
		}
	}
}

// findIdx is find returning the stored row index instead of a bool:
// the index of vals in the backing store, or -1 when absent. Read-only;
// lets prefix snapshots (RelView) answer membership for rows [0, hi)
// of an append-only relation in O(1).
func (h *rowHash) findIdx(vals []uint32) int32 {
	if h.n == 0 {
		return -1
	}
	mask := len(h.idxs) - 1
	hv := hashU32s(vals)
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		idx := h.idxs[i]
		if idx < 0 {
			return -1
		}
		if h.hashes[i] == hv && rowsEqual(h.rowAt(idx), vals) {
			return idx
		}
	}
}

// insertLookup probes for vals, growing the table first if needed. It
// returns the slot where vals lives or should be placed, the hash, and
// whether the row is already present.
func (h *rowHash) insertLookup(vals []uint32) (slot int, hv uint64, found bool) {
	if h.idxs == nil {
		h.init(16)
	} else if (h.n+1)*4 > len(h.idxs)*3 {
		h.grow()
	}
	mask := len(h.idxs) - 1
	hv = hashU32s(vals)
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		idx := h.idxs[i]
		if idx < 0 {
			return i, hv, false
		}
		if h.hashes[i] == hv && rowsEqual(h.rowAt(idx), vals) {
			return i, hv, true
		}
	}
}

// place records row idx at a slot previously returned by insertLookup.
// The caller must have appended the row's values to the store.
func (h *rowHash) place(slot int, hv uint64, idx int32) {
	h.hashes[slot] = hv
	h.idxs[slot] = idx
	h.n++
}

// reset empties the table and points it at a new backing store.
func (h *rowHash) reset(data *[]uint32, arity int) {
	h.data, h.arity, h.n = data, arity, 0
	for i := range h.idxs {
		h.idxs[i] = -1
	}
}

func (h *rowHash) init(size int) {
	h.hashes = make([]uint64, size)
	h.idxs = make([]int32, size)
	for i := range h.idxs {
		h.idxs[i] = -1
	}
}

func (h *rowHash) grow() {
	oldHashes, oldIdxs := h.hashes, h.idxs
	h.init(len(oldIdxs) * 2)
	mask := len(h.idxs) - 1
	for s, idx := range oldIdxs {
		if idx < 0 {
			continue
		}
		hv := oldHashes[s]
		i := int(hv) & mask
		for h.idxs[i] >= 0 {
			i = (i + 1) & mask
		}
		h.hashes[i] = hv
		h.idxs[i] = idx
	}
}

// rowIndex is a hash index from the values at a fixed set of argument
// positions to the rows holding them, as head/next chains in ascending
// row order (candidates in insertion order keep the recorded first
// derivation of every fact independent of how the index hashes).
// Built lazily under the owning irel's lock; appended to incrementally
// at single-threaded round barriers.
type rowIndex struct {
	pos    []int
	n      int // occupied entries
	hashes []uint64
	heads  []int32 // first row of the chain per slot; -1 = empty
	tails  []int32 // last row of the chain per slot
	next   []int32 // next[row] = next row with the same key; -1 = end
}

func buildRowIndex(r *irel, pos []int) *rowIndex {
	ix := &rowIndex{pos: pos}
	ix.init(pow2(r.n*2 + 16))
	ix.next = make([]int32, 0, r.n)
	for i := 0; i < r.n; i++ {
		ix.appendRow(r, int32(i))
	}
	return ix
}

func (ix *rowIndex) init(size int) {
	ix.hashes = make([]uint64, size)
	ix.heads = make([]int32, size)
	ix.tails = make([]int32, size)
	for i := range ix.heads {
		ix.heads[i] = -1
	}
}

func (ix *rowIndex) projHash(row []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range ix.pos {
		h ^= uint64(row[p])
		h *= 1099511628211
	}
	return h
}

func (ix *rowIndex) projEqualRows(a, b []uint32) bool {
	for _, p := range ix.pos {
		if a[p] != b[p] {
			return false
		}
	}
	return true
}

func (ix *rowIndex) projEqualVals(row, vals []uint32) bool {
	for k, p := range ix.pos {
		if row[p] != vals[k] {
			return false
		}
	}
	return true
}

// appendRow adds row ri (which must be the next row, len(ix.next)) to
// the index, extending the chain for its key.
func (ix *rowIndex) appendRow(r *irel, ri int32) {
	ix.next = append(ix.next, -1)
	if (ix.n+1)*4 > len(ix.heads)*3 {
		ix.grow()
	}
	row := r.row(int(ri))
	hv := ix.projHash(row)
	mask := len(ix.heads) - 1
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		head := ix.heads[i]
		if head < 0 {
			ix.hashes[i] = hv
			ix.heads[i] = ri
			ix.tails[i] = ri
			ix.n++
			return
		}
		if ix.hashes[i] == hv && ix.projEqualRows(r.row(int(head)), row) {
			ix.next[ix.tails[i]] = ri
			ix.tails[i] = ri
			return
		}
	}
}

func (ix *rowIndex) grow() {
	oldHashes, oldHeads, oldTails := ix.hashes, ix.heads, ix.tails
	ix.init(len(oldHeads) * 2)
	mask := len(ix.heads) - 1
	for s, head := range oldHeads {
		if head < 0 {
			continue
		}
		hv := oldHashes[s]
		i := int(hv) & mask
		for ix.heads[i] >= 0 {
			i = (i + 1) & mask
		}
		ix.hashes[i] = hv
		ix.heads[i] = head
		ix.tails[i] = oldTails[s]
	}
}

// lookup returns the first row whose values at ix.pos equal vals, or
// -1; follow ix.next for the rest of the chain. Read-only.
func (ix *rowIndex) lookup(r *irel, vals []uint32) int32 {
	hv := hashU32s(vals)
	mask := len(ix.heads) - 1
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		head := ix.heads[i]
		if head < 0 {
			return -1
		}
		if ix.hashes[i] == hv && ix.projEqualVals(r.row(int(head)), vals) {
			return head
		}
	}
}

// irel is an interned relation: a set of same-arity []uint32 rows in a
// single flat slice, a duplicate-elimination hash set, and lazily built
// bound-position indexes. The same concurrency contract as Relation
// applies: any number of goroutines may read (row, contains, index
// probes) a frozen irel; add requires that no reader runs concurrently,
// which the evaluator guarantees by mutating only at round barriers.
type irel struct {
	arity int
	n     int
	data  []uint32
	set   rowHash
	// mu guards indexes: concurrent probes of the same un-indexed
	// position mask would otherwise race on the lazy build.
	mu      sync.RWMutex
	indexes map[uint64]*rowIndex // keyed by position bitmask
	// stats holds one distinct-value sketch per column (see stats.go),
	// lazily allocated on first insert and updated on every insert, so
	// planning-time cardinality estimates are always current. Same
	// contract as data: written only by add, read only when frozen.
	stats []ColSketch
}

func newIrel(arity, sizeHint int) *irel {
	r := &irel{arity: arity}
	r.set = rowHash{data: &r.data, arity: arity}
	if sizeHint > 0 {
		r.data = make([]uint32, 0, sizeHint*arity)
		r.set.init(pow2(sizeHint * 2))
	}
	return r
}

func (r *irel) row(i int) []uint32 {
	s := i * r.arity
	return r.data[s : s+r.arity]
}

// add inserts a row, reporting whether it was new. Existing indexes are
// maintained incrementally, exactly like Relation.Add. Single writer.
func (r *irel) add(vals []uint32) bool {
	slot, hv, found := r.set.insertLookup(vals)
	if found {
		return false
	}
	idx := int32(r.n)
	r.data = append(r.data, vals...)
	r.n++
	r.set.place(slot, hv, idx)
	if r.stats == nil && r.arity > 0 {
		r.stats = make([]ColSketch, r.arity)
	}
	for j, v := range vals {
		r.stats[j].Add(v)
	}
	r.mu.Lock()
	for _, ix := range r.indexes {
		ix.appendRow(r, idx)
	}
	r.mu.Unlock()
	return true
}

// contains reports membership; read-only and safe for concurrent use
// on a frozen relation.
func (r *irel) contains(vals []uint32) bool { return r.set.find(vals) }

// index returns the rowIndex for the given position bitmask, building
// it lazily. Safe for concurrent readers: the build is double-checked
// under an RWMutex, so two tasks probing the same un-indexed position
// mask cannot race.
func (r *irel) index(mask uint64, pos []int) *rowIndex {
	r.mu.RLock()
	ix := r.indexes[mask]
	r.mu.RUnlock()
	if ix != nil {
		return ix
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix = r.indexes[mask]; ix != nil {
		return ix
	}
	ix = buildRowIndex(r, pos)
	if r.indexes == nil {
		r.indexes = map[uint64]*rowIndex{}
	}
	r.indexes[mask] = ix
	return ix
}
