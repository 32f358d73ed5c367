package eval

// Interned data layout of the engine. Constant terms are assigned dense
// uint32 ids by an interner, tuples become flat []uint32 rows, and both
// the per-relation duplicate set and the bound-position hash indexes key
// on integer hashes with exact row comparison — no string is built or
// hashed anywhere on the join path. The interner is an internal boundary:
// nothing outside the engine ever sees an id.
//
// Interning is layered. The constants of a database are interned once
// per database snapshot into a frozen base (base.go). The plans compiled
// over that base put the rule constants it lacks into a frozen level of
// their own, which a Prepared query keeps with its plans, detached from
// the base's interner, for as long as the base serves it; each run puts a
// copy of it back over that interner, so those constants keep their ids
// from run to run (compiled.go). Each evaluation then layers a small private overlay on
// top for what only it mentions — a goal's constants — so no evaluation
// touches an EDB tuple to intern, and a prepared one reuses its plans
// over a base it has run on.

import (
	"sort"
	"sync"

	"repro/internal/ast"
)

// interner maps constant terms to dense uint32 ids. A root interner
// (under == nil) owns ids [0, len(terms)); an overlay owns the ids from
// under's last one up and resolves everything below through under,
// which must be frozen (and may be an overlay itself). An interner is
// built single-threaded and read-only afterwards, except for the lazy
// key cache (termKey).
type interner struct {
	under *interner // frozen lower level; nil for a root interner
	off   uint32    // the first id this level owns: under's off plus len(under.terms)
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
	return &interner{under: under, off: under.off + uint32(len(under.terms)), ids: map[ast.Term]uint32{}}
}

// size is the number of ids the interner and the levels under it own.
func (in *interner) size() int { return int(in.off) + len(in.terms) }

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
	for u := in.under; u != nil; u = u.under {
		if id, ok := u.ids[t]; ok {
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
	for id < in.off {
		in = in.under
	}
	return in.terms[id-in.off]
}

// termKey returns Term.Key for an id, rendering each distinct term at
// most once. Ids of the frozen levels read their precomputed keys; the
// lazy fill for this level's own ids belongs to the level's one writer.
func (in *interner) termKey(id uint32) string {
	if id < in.off {
		return in.under.renderedKey(id)
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

// renderedKey returns the key termKey has rendered for id, or "" when
// none has been. It never renders, so it only reads; every id of a
// frozen level has its key.
func (in *interner) renderedKey(id uint32) string {
	for id < in.off {
		in = in.under
	}
	if own := int(id - in.off); own < len(in.keys) {
		return in.keys[own]
	}
	return ""
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

// grown returns s with room for n more elements, doubling its capacity
// when it is full. Go's append grows a large slice by a quarter, which
// over the life of a store that only grows allocates about five times
// its final size; doubling allocates twice.
func grown[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	out := make([]T, len(s), 2*cap(s)+n)
	copy(out, s)
	return out
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
// []uint32 store (arity values per row). A slot packs a row's index
// with the low half of its hash — enough to place it again when the
// table grows and to tell most neighbours apart in the one word a probe
// reads — and rows are then compared by value, so membership answers
// are exact: a collision costs a comparison, never a wrong answer.
// Callers pass the row's hashU32s in, so a row is hashed once however
// many probes it takes part in. findIdx is read-only and safe for
// concurrent readers of a frozen store; insertLookup/place mutate and
// require a single writer.
type rowHash struct {
	data  *[]uint32 // backing flat row store
	arity int
	n     int
	slots []uint64 // uint32(hash)<<32 | row index + 1; 0 = empty
}

// findIdx returns the stored index of the row vals (whose hashU32s is
// hv), or -1 when absent, without mutating the table. An index answers
// membership for any prefix [0, hi) of an append-only store in O(1),
// which is what RelView needs.
func (h *rowHash) findIdx(vals []uint32, hv uint64) int32 {
	if h.n == 0 {
		return -1
	}
	_, idx := h.probe(vals, hv)
	return idx
}

// probe walks vals' chain to the slot that holds it (returning its row
// index) or to the empty slot that ends the chain (returning -1).
func (h *rowHash) probe(vals []uint32, hv uint64) (slot int, idx int32) {
	mask := len(h.slots) - 1
	for i := int(uint32(hv)) & mask; ; i = (i + 1) & mask {
		s := h.slots[i]
		if s == 0 {
			return i, -1
		}
		if s>>32 == hv&0xffffffff {
			d, at := *h.data, (int(uint32(s))-1)*h.arity
			if rowsEqual(d[at:at+h.arity], vals) {
				return i, int32(uint32(s)) - 1
			}
		}
	}
}

// insertLookup probes for vals (whose hashU32s is hv), growing the table
// first if needed. It returns the slot where vals lives or should be
// placed and whether the row is already present.
func (h *rowHash) insertLookup(vals []uint32, hv uint64) (slot int, found bool) {
	if h.slots == nil {
		h.slots = make([]uint64, 16)
	} else if (h.n+1)*4 > len(h.slots)*3 {
		h.grow(len(h.slots) * 2)
	}
	slot, idx := h.probe(vals, hv)
	return slot, idx >= 0
}

// place records row idx at a slot previously returned by insertLookup.
// The caller must have appended the row's values to the store.
func (h *rowHash) place(slot int, hv uint64, idx int32) {
	h.slots[slot] = hv<<32 | uint64(idx+1)
	h.n++
}

// reset empties the table and points it at a new backing store.
func (h *rowHash) reset(data *[]uint32, arity int) {
	h.data, h.arity, h.n = data, arity, 0
	clear(h.slots)
}

// grow moves the table to size slots (a power of two that holds it).
func (h *rowHash) grow(size int) {
	old := h.slots
	h.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			h.put(s)
		}
	}
}

// put stores the slot s of a row the table does not hold in the first
// empty slot from the one its hash names: no row is read.
func (h *rowHash) put(s uint64) {
	mask := len(h.slots) - 1
	i := int(s>>32) & mask
	for h.slots[i] != 0 {
		i = (i + 1) & mask
	}
	h.slots[i] = s
}

// rowIndex is a hash index from the values at a fixed set of argument
// positions to the rows holding them, as head/next chains in ascending
// row order (candidates in insertion order keep the recorded first
// derivation of every fact independent of how the index hashes).
// Built lazily under the owning irel's lock; appended to incrementally
// by irel.add. A reader that bounds itself to a prefix of the relation
// may walk a chain while the relation's one writer — the same goroutine
// — extends it: chains only grow at the far end. firsts lists the row
// that opened each key, ascending, so the number of distinct keys in any
// prefix of the relation is exact and a binary search away (keysBelow).
type rowIndex struct {
	mask   uint64 // pos as a bitmask, which tells a relation's indexes apart
	pos    []int
	firsts []int32  // first row of each key, in row order; len = keys
	hashes []uint32 // the low half of each key's hash
	heads  []int32  // first row of the chain per slot; -1 = empty
	tails  []int32  // last row of the chain per slot
	next   []int32  // next[row] = next row with the same key; -1 = end
}

func buildRowIndex(r *irel, mask uint64, pos []int) *rowIndex {
	ix := &rowIndex{mask: mask, pos: pos}
	ix.init(pow2(r.n*2 + 16))
	ix.next = make([]int32, 0, r.n)
	for i := 0; i < r.n; i++ {
		ix.appendRow(r, int32(i))
	}
	return ix
}

func (ix *rowIndex) init(size int) {
	ix.hashes = make([]uint32, size)
	ix.heads = make([]int32, size)
	ix.tails = make([]int32, size)
	for i := range ix.heads {
		ix.heads[i] = -1
	}
}

func (ix *rowIndex) projHash(row []uint32) uint32 {
	h := uint64(14695981039346656037)
	for _, p := range ix.pos {
		h ^= uint64(row[p])
		h *= 1099511628211
	}
	return uint32(h)
}

func (ix *rowIndex) projEqualRows(a, b []uint32) bool {
	for _, p := range ix.pos {
		if a[p] != b[p] {
			return false
		}
	}
	return true
}

// projEqual reports whether row holds vals at the positions pos.
func projEqual(row []uint32, pos []int, vals []uint32) bool {
	for k, p := range pos {
		if row[p] != vals[k] {
			return false
		}
	}
	return true
}

// appendRow adds row ri to the index, extending the chain for its key.
// ri is the next row (len(ix.next)), or a fresh row of a carried index
// (carried), which is linked in at its place in row order.
func (ix *rowIndex) appendRow(r *irel, ri int32) {
	if int(ri) == len(ix.next) {
		ix.next = append(ix.next, -1)
	} else {
		ix.next[ri] = -1
	}
	if (len(ix.firsts)+1)*4 > len(ix.heads)*3 {
		ix.grow()
	}
	row := r.row(int(ri))
	hv := ix.projHash(row)
	mask := len(ix.heads) - 1
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		head := ix.heads[i]
		if head < 0 {
			ix.hashes[i], ix.heads[i], ix.tails[i] = hv, ri, ri
			ix.firsts = append(ix.firsts, ri)
			ix.sinkFirst(len(ix.firsts)-1, ri)
			return
		}
		if ix.hashes[i] != hv || !ix.projEqualRows(r.row(int(head)), row) {
			continue
		}
		switch p := head; {
		case ri > ix.tails[i]:
			ix.next[ix.tails[i]], ix.tails[i] = ri, ri
		case ri < head:
			ix.next[ri], ix.heads[i] = head, ri
			ix.sinkFirst(sort.Search(len(ix.firsts), func(k int) bool { return ix.firsts[k] >= head }), ri)
		default:
			for ix.next[p] < ri {
				p = ix.next[p]
			}
			ix.next[ri], ix.next[p] = ix.next[p], ri
		}
		return
	}
}

// sinkFirst puts ri at firsts[k] and moves it down to its place.
func (ix *rowIndex) sinkFirst(k int, ri int32) {
	for ; k > 0 && ix.firsts[k-1] > ri; k-- {
		ix.firsts[k] = ix.firsts[k-1]
	}
	ix.firsts[k] = ri
}

func (ix *rowIndex) grow() {
	oldHashes, oldHeads, oldTails := ix.hashes, ix.heads, ix.tails
	ix.init(len(oldHeads) * 2)
	for s, head := range oldHeads {
		if head >= 0 {
			ix.put(oldHashes[s], head, oldTails[s])
		}
	}
}

// put opens the first empty slot from the one hv names for a key the
// index does not hold, hashing to hv, with the chain from head to tail.
func (ix *rowIndex) put(hv uint32, head, tail int32) {
	mask := len(ix.heads) - 1
	i := int(hv) & mask
	for ix.heads[i] >= 0 {
		i = (i + 1) & mask
	}
	ix.hashes[i], ix.heads[i], ix.tails[i] = hv, head, tail
}

// keysBelow returns the number of distinct keys among rows [0, hi).
func (ix *rowIndex) keysBelow(hi int) int {
	return sort.Search(len(ix.firsts), func(k int) bool { return int(ix.firsts[k]) >= hi })
}

// lookup returns the first row whose values at ix.pos equal vals, or
// -1; follow ix.next for the rest of the chain. Read-only.
func (ix *rowIndex) lookup(r *irel, vals []uint32) int32 {
	hv := uint32(hashU32s(vals))
	mask := len(ix.heads) - 1
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		head := ix.heads[i]
		if head < 0 {
			return -1
		}
		if ix.hashes[i] == hv && projEqual(r.row(int(head)), ix.pos, vals) {
			return head
		}
	}
}

// irel is an interned relation: a set of same-arity []uint32 rows in a
// single flat slice, a duplicate-elimination hash set, and lazily built
// bound-position indexes. It is append-only, so a prefix or a window of
// its rows is a relation too: the semi-naive delta of a round is rows
// [lo, hi) of the IDB relation, never a copy, and a fixpoint round reads
// the prefix that existed at its barrier while it appends past it. The
// same concurrency contract as Relation applies: any number of
// goroutines may read (row, contains, index probes) a frozen irel — the
// shared EDB base — and add requires that no other goroutine reads,
// which holds because an IDB relation belongs to one evaluation and an
// evaluation is one goroutine.
//
// Removal exists for incremental maintenance only (IRel, delta.go) and
// moves nothing: remove stamps the row dead, the dedup slot and every
// index chain keep pointing at it, and the join kernel skips what a
// window's epoch hides. The fixpoint's relations are never removed from,
// so add knows nothing of any of this.
type irel struct {
	arity int
	n     int
	data  []uint32
	set   rowHash
	// mu guards the indexes readers build lazily: concurrent probes of
	// the same un-indexed position mask would otherwise race. A relation
	// has a few, told apart by their masks.
	mu      sync.RWMutex
	indexes []*rowIndex
	// dead[i] is the epoch in which row i was removed, 0 while it lives;
	// rows past len(dead) live, and dead is nil until the first removal.
	// epoch counts the freezes (IRel.Freeze) and is what a removal stamps.
	dead  []uint32
	nDead int
	epoch uint32
}

func newIrel(arity, sizeHint int) *irel {
	r := &irel{arity: arity}
	r.set = rowHash{data: &r.data, arity: arity}
	if sizeHint > 0 {
		r.data = make([]uint32, 0, sizeHint*arity)
		r.set.slots = make([]uint64, pow2(sizeHint*2))
	}
	return r
}

func (r *irel) row(i int) []uint32 {
	s := i * r.arity
	return r.data[s : s+r.arity]
}

// add inserts a row, reporting whether it was new. Single writer.
func (r *irel) add(vals []uint32) bool { return r.addHashed(vals, hashU32s(vals)) }

// addHashed is add for a row whose hashU32s the caller already has: one
// probe of the dedup set, one append to the row store, and one chain
// append per index that exists. No lock is taken — the contract above
// already rules out a concurrent reader.
func (r *irel) addHashed(vals []uint32, hv uint64) bool {
	slot, found := r.set.insertLookup(vals, hv)
	if found {
		return false
	}
	idx := int32(r.n)
	r.data = append(grown(r.data, len(vals)), vals...)
	r.n++
	r.set.place(slot, hv, idx)
	for _, ix := range r.indexes {
		ix.appendRow(r, idx)
	}
	return true
}

// hidden reports whether row i was removed in or before epoch.
func (r *irel) hidden(i int, epoch uint32) bool {
	return i < len(r.dead) && r.dead[i] != 0 && r.dead[i] <= epoch
}

// remove stamps the row dead in the current epoch, reporting whether it
// was live.
func (r *irel) remove(vals []uint32) bool {
	idx := int(r.set.findIdx(vals, hashU32s(vals)))
	if idx < 0 || r.hidden(idx, r.epoch) {
		return false
	}
	if len(r.dead) < r.n {
		r.dead = append(r.dead, make([]uint32, r.n-len(r.dead))...)
	}
	r.dead[idx] = r.epoch
	r.nDead++
	return true
}

// addBack is add for a relation with dead rows, where vals may be one.
// A row removed in this epoch comes back in place: the views frozen
// before it left must keep seeing it. A row removed in an earlier epoch
// must stay hidden from them, so it returns as a new row at the end and
// the dedup slot moves to it; the dead copy is dropped by compact.
func (r *irel) addBack(vals []uint32) bool {
	hv := hashU32s(vals)
	slot, idx := r.set.probe(vals, hv)
	if idx < 0 || !r.hidden(int(idx), r.epoch) {
		return r.addHashed(vals, hv)
	}
	if r.dead[idx] == r.epoch {
		r.dead[idx] = 0
		r.nDead--
		return true
	}
	r.set.slots[slot] = hv<<32 | uint64(r.n+1)
	r.data = append(grown(r.data, len(vals)), vals...)
	r.n++
	for _, ix := range r.indexes {
		ix.appendRow(r, int32(r.n-1))
	}
	return true
}

// compact drops the dead rows, keeps the order of the rest and starts
// the epochs over; every RelView taken before is void. Indexes are
// rebuilt by their next reader.
func (r *irel) compact() {
	w := 0
	for i := 0; i < r.n; i++ {
		if !r.hidden(i, r.epoch) {
			copy(r.data[w*r.arity:], r.row(i))
			w++
		}
	}
	r.n, r.data = w, r.data[:w*r.arity]
	r.dead, r.nDead, r.epoch = nil, 0, 1
	r.indexes = nil
	r.set.reset(&r.data, r.arity)
	for i := 0; i < w; i++ {
		hv := hashU32s(r.row(i))
		slot, _ := r.set.insertLookup(r.row(i), hv)
		r.set.place(slot, hv, int32(i))
	}
}

// index returns the rowIndex for the given position bitmask, building
// it lazily. Safe for concurrent readers: the build is double-checked
// under an RWMutex, so two tasks probing the same un-indexed position
// mask cannot race, and a reader scans the indexes only under it.
func (r *irel) index(mask uint64, pos []int) *rowIndex {
	r.mu.RLock()
	ix := r.indexFor(mask)
	r.mu.RUnlock()
	if ix != nil {
		return ix
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix = r.indexFor(mask); ix != nil {
		return ix
	}
	ix = buildRowIndex(r, mask, pos)
	r.indexes = append(r.indexes, ix)
	return ix
}

// indexFor returns the built index for mask, or nil. The caller holds mu.
func (r *irel) indexFor(mask uint64) *rowIndex {
	for _, ix := range r.indexes {
		if ix.mask == mask {
			return ix
		}
	}
	return nil
}
