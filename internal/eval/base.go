package eval

// The interned base of a database: one frozen interner holding every
// constant of the DB (keys precomputed) and one irel per relation — flat
// rows, dedup hash, and the lazily built, internally synchronized
// positional indexes (which also hold the exact key counts join orders
// read). It is built by the first compiled evaluation over the DB and
// shared, read-only, by every later one (EvalCtx, QueryCtx, provenance
// runs, concurrent or not), which is
// what makes the cost of a goal-directed query proportional to what it
// derives instead of to |EDB|. Evaluations never write to it: program
// constants and magic seeds unknown to the base go to a private overlay
// interner, and derived tuples to private IDB relations.
//
// Lifetime: the base lives as long as its DB and costs about one
// interned copy of it. Relations are append-only, so a base is current
// exactly when the DB still holds the same relations at the same
// lengths. After any mutation — AddFact, Rel creating a relation, or a
// direct Relation.Add — the next evaluation derives a new base from the
// stale one, and a DB that Replace returns starts with its predecessor's
// base, stale for it; Clone starts without one. A derivation costs what
// changed: a relation whose stamp holds keeps its irel and indexes. A
// changed one is carried (carryRows): the rows of the tuples whose
// backing arrays the old relation held (tuples are never written once in
// a relation) are copied run by run, and the entries of the old dedup
// set and of every index the old relation had built are renumbered and
// placed again by the hashes they hold, so only the tuples that arrived
// are hashed, and the first indexed probe finds its index built. The interner is shared while no constant
// is new. New constants stack: a base's interner is a root or one small
// delta level over a root, the delta copied and extended per derivation
// that brings a constant, and folded into a new root once it holds
// 1/deltaShare of the root's terms. So ids depend on the DB's history,
// and nothing observable may: answers are ordered by row order and
// rendering, join orders by exact lengths and key counts, index chains
// by row order. Departed constants stay in a derived interner until its
// levels hold more than maxGrowth times the terms of its last
// from-scratch build plus growthSlack; the next derivation builds from
// scratch, which keeps a new constant O(1) amortized and the interner
// about twice a fresh one at most.
//
// A base also keeps the answers of the prepared queries run over it
// (answerMemo): an answer is a function of the prepared query, the base
// and the goal, and a base never changes, so the memo is never stale and
// goes with its base.

import (
	"encoding/binary"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
)

const (
	maxGrowth   = 2
	growthSlack = 64
	deltaShare  = 32
)

// lastBaseID numbers the bases built, so that what was compiled over one
// can name it without keeping it alive.
var lastBaseID atomic.Uint64

type edbBase struct {
	id   uint64 // unique for the life of the process
	in   *interner
	rels map[string]*irel
	rows int // tuples looked up in an interner building this base
	full int // terms of the last from-scratch build it derives from
	// stamps record what the base was built from, for the currency check
	// and for the next derivation.
	stamps  map[string]relStamp
	answers answerMemo
}

type relStamp struct {
	rel *Relation
	n   int
}

// current reports whether db still is what the base was built from.
func (b *edbBase) current(db *DB) bool {
	if len(db.rels) != len(b.stamps) {
		return false
	}
	for pred, s := range b.stamps {
		if db.rels[pred] != s.rel || s.rel.Len() != s.n {
			return false
		}
	}
	return true
}

// memoBytes bounds what a base's answer memo keeps, in bytes as charge
// counts them. An entry that would cross it empties the memo first, so a
// hot set that moves is memoized again; an entry larger than the bound is
// never kept.
const memoBytes = 8 << 20

// memoEntryBytes is what an entry keeps besides its key, answers and
// round log: its Result, Stats and ordering headers, the evaluation's
// overlay interner and the map slot. A one-answer magic point query's
// entry keeps ≈ 0.75 KB in all; TestAnswerMemoBound holds the charge of
// ~2,000 entries above the heap they keep.
const memoEntryBytes = 1 << 10

// answerMemo maps a key — a Prepared's id, then the goal's key — to the
// Result and Stats of that Prepared's run at that goal over the base that
// owns it. Entries are written once and never changed: every run with
// the key would answer the same.
type answerMemo struct {
	mu    sync.RWMutex
	m     map[string]memoEntry
	bytes int
}

type memoEntry struct {
	res   *Result
	stats *Stats
}

// charge is what e keeps under a key of keyLen bytes once its Result has
// been ordered: the answers' rows (their capacity), per cell an ordering
// rank and at most one distinct constant's two string headers, per
// answer a position, and the round log. A constant's rendering is
// shared with the base's interner, except a string constant's quoted
// form, which is not counted.
func (e memoEntry) charge(keyLen int) int {
	cells := e.res.n * e.res.arity
	return memoEntryBytes + keyLen + 4*cap(e.res.data) + cells*(4+32) + 4*e.res.n + 8*len(e.stats.rounds.counts)
}

func (am *answerMemo) get(key []byte) (memoEntry, bool) {
	am.mu.RLock()
	e, ok := am.m[string(key)]
	am.mu.RUnlock()
	return e, ok
}

// put keeps e under key unless an entry is there already: two runs that
// missed together keep the first one's Result.
func (am *answerMemo) put(key []byte, e memoEntry) {
	c := e.charge(len(key))
	if c > memoBytes {
		return
	}
	am.mu.Lock()
	defer am.mu.Unlock()
	if _, ok := am.m[string(key)]; ok {
		return
	}
	if am.m == nil || am.bytes+c > memoBytes {
		am.m, am.bytes = map[string]memoEntry{}, 0
	}
	am.m[string(key)] = e
	am.bytes += c
}

// appendGoalKey appends a key for goal to dst: each term's Key, then its
// length, so that no two goals of one length share a key (a string
// constant's Key may hold any byte). Variables keep their names: p(X, X)
// and p(X, Y) answer differently.
func appendGoalKey(dst []byte, goal []ast.Term) []byte {
	for _, t := range goal {
		n := len(dst)
		dst = t.AppendKey(dst)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-n))
	}
	return dst
}

// emptyBase serves evaluations over a nil DB.
var emptyBase = func() *edbBase {
	b := &edbBase{id: lastBaseID.Add(1), in: newInterner()}
	b.in.freeze()
	return b
}()

// interned returns the DB's interned base, building it — from the stale
// one, if there is one — when there is none or it is not current, and
// the tuples this call looked up building it (Stats.EDBRowsInterned):
// 0 when it reused the base. Safe for concurrent evaluations of one DB
// (the first builds, the rest wait); like every read of a DB, not safe
// against a concurrent mutation of it.
func (db *DB) interned() (base *edbBase, rows int64) {
	if db == nil {
		return emptyBase, 0
	}
	db.baseMu.Lock()
	defer db.baseMu.Unlock()
	if db.base == nil || !db.base.current(db) {
		db.base = buildBase(db, db.base)
		rows = int64(db.base.rows)
	}
	return db.base, rows
}

// buildBase interns every relation of db in sorted-predicate order and
// tuple order, deriving what it can from prev (nil: from scratch).
// Neither prev nor anything it shares is written.
func buildBase(db *DB, prev *edbBase) *edbBase {
	in := newInterner()
	if prev != nil {
		in = prev.in.overlay()
	}
	b := &edbBase{
		id:     lastBaseID.Add(1),
		rels:   make(map[string]*irel, len(db.rels)),
		stamps: make(map[string]relStamp, len(db.rels)),
	}
	for _, pred := range db.Preds() {
		rel := db.rels[pred]
		var s relStamp
		var old *irel
		if prev != nil {
			s, old = prev.stamps[pred], prev.rels[pred]
		}
		if s.rel == rel && s.n == rel.Len() {
			b.rels[pred] = old
		} else {
			// Rows are copied only from an irel with one row per tuple, and
			// tuples are matched by their first element's address.
			var oldTuples []Tuple
			if s.rel != nil && s.rel.Arity == rel.Arity && rel.Arity > 0 && old.n == s.n {
				oldTuples = s.rel.tuples[:s.n]
			}
			ir, looked := carryRows(rel, oldTuples, old, in)
			b.rels[pred], b.rows = ir, b.rows+looked
		}
		b.stamps[pred] = relStamp{rel: rel, n: rel.Len()}
	}
	switch {
	case prev == nil:
		in.freeze()
		b.in, b.full = in, len(in.terms)
	case len(in.terms) == 0:
		b.in, b.full = prev.in, prev.full
	case in.size() > maxGrowth*prev.full+growthSlack:
		return buildBase(db, nil)
	default:
		b.in, b.full = in.stacked(), prev.full
	}
	return b
}

// carryRows interns rel's tuples into a new irel, in order, and returns
// it with the number of tuples it looked up in in. A tuple whose backing
// array is that of one of oldTuples (the tuples old was built from, row
// for row) is carried: its row is copied, run by run, and its entries in
// old's dedup set and indexes are renumbered and placed again by the
// hashes they hold (carried); only the fresh tuples are hashed. Two
// walks, one per slice, match identical tuples and resynchronize through
// resync after any run of insertions and deletions. old is only read.
func carryRows(rel *Relation, oldTuples []Tuple, old *irel, in *interner) (*irel, int) {
	tuples, a := rel.tuples, rel.Arity
	if len(oldTuples) == 0 {
		ir, buf := newIrel(a, len(tuples)), make([]uint32, a)
		for _, t := range tuples {
			for k, v := range t {
				buf[k] = in.intern(v)
			}
			ir.add(buf)
		}
		return ir, len(tuples)
	}
	// runs lists the tuples in order: n carried rows from old row j, or
	// (j < 0) the fresh row -1-j, whose n is 0 once an earlier tuple holds
	// its row. remap[j] is the tuple carrying old row j (-1: none), then
	// the row it becomes.
	type run struct{ j, n int32 }
	var runs []run
	remap := make([]int32, len(oldTuples))
	var fresh []uint32
	i, j := 0, 0
	for i < len(tuples) {
		if j < len(oldTuples) && &tuples[i][0] == &oldTuples[j][0] {
			if k := len(runs) - 1; k >= 0 && runs[k].j >= 0 && int(runs[k].j+runs[k].n) == j {
				runs[k].n++
			} else {
				runs = append(runs, run{int32(j), 1})
			}
			remap[j] = int32(i)
			i, j = i+1, j+1
			continue
		}
		ni, nj := resync(tuples, oldTuples, i, j)
		for ; i < ni; i++ {
			for _, v := range tuples[i] {
				fresh = append(fresh, in.intern(v))
			}
			runs = append(runs, run{-int32(len(fresh) / a), 1})
		}
		for ; j < nj; j++ {
			remap[j] = -1
		}
	}
	for ; j < len(oldTuples); j++ {
		remap[j] = -1
	}
	// Of the tuples holding one row the first keeps it, as in a
	// from-scratch build: an earlier fresh tuple or a carried one (old's
	// dedup set finds it) drops a fresh one, and a fresh one drops a later
	// carried one.
	seen, at := rowHash{data: &fresh, arity: a}, 0
	for k, r := range runs {
		if r.j < 0 {
			row := fresh[int(-1-r.j)*a : int(-r.j)*a]
			hv := hashU32s(row)
			slot, dup := seen.insertLookup(row, hv)
			if !dup {
				seen.place(slot, hv, -1-r.j)
			}
			if j := old.set.findIdx(row, hv); dup || (j >= 0 && remap[j] >= 0 && int(remap[j]) < at) {
				runs[k].n = 0
			} else if j >= 0 && remap[j] >= 0 {
				remap[j] = -1
			}
		}
		at += int(r.n)
	}
	ir := &irel{arity: a, data: make([]uint32, 0, len(tuples)*a)}
	var freshRows []int32
	for _, r := range runs {
		if r.j < 0 {
			if r.n > 0 {
				ir.data = append(ir.data, fresh[int(-1-r.j)*a:int(-r.j)*a]...)
				freshRows, ir.n = append(freshRows, int32(ir.n)), ir.n+1
			}
			continue
		}
		for j, end := r.j, r.j+r.n; j < end; {
			from := j
			for ; j < end && remap[j] >= 0; j++ {
				remap[j], ir.n = int32(ir.n), ir.n+1
			}
			ir.data = append(ir.data, old.data[int(from)*a:int(j)*a]...)
			for ; j < end && remap[j] < 0; j++ {
			}
		}
	}
	// The dedup set: old's slots of the rows that stay, renumbered and
	// placed again by the hash they hold, and the fresh rows.
	ir.set = rowHash{data: &ir.data, arity: a, slots: make([]uint64, pow2(2*len(tuples)))}
	for _, sl := range old.set.slots {
		if sl != 0 && remap[uint32(sl)-1] >= 0 {
			ir.set.put(sl>>32<<32 | uint64(remap[uint32(sl)-1]+1))
			ir.set.n++
		}
	}
	for _, ri := range freshRows {
		hv := hashU32s(ir.row(int(ri)))
		slot, _ := ir.set.insertLookup(ir.row(int(ri)), hv)
		ir.set.place(slot, hv, ri)
	}
	old.mu.RLock()
	ixs := old.indexes
	old.mu.RUnlock()
	for _, ox := range ixs {
		ir.indexes = append(ir.indexes, ox.carried(ir, remap, freshRows))
	}
	return ir, len(fresh) / a
}

// carried returns ox, an index of a relation whose row j became ir's row
// remap[j] (-1: it left), as the same index of ir; fresh are ir's new
// rows, ascending. Each key with a row that stays is placed again by the
// hash ox holds, its chain renumbered from its first to its last row that
// stays, and each fresh row is linked in at its place in row order. Only
// the fresh rows are hashed.
func (ox *rowIndex) carried(ir *irel, remap, fresh []int32) *rowIndex {
	ix := &rowIndex{mask: ox.mask, pos: ox.pos, next: make([]int32, ir.n), firsts: make([]int32, 0, len(ox.firsts)+len(fresh))}
	ix.init(len(ox.heads))
	for s, h := range ox.heads {
		if h = ox.stays(h, remap); h >= 0 {
			t := ox.tails[s]
			if remap[t] < 0 { // the tail left: the last row that stays
				for j := h; j >= 0; j = ox.next[j] {
					if remap[j] >= 0 {
						t = j
					}
				}
			}
			ix.put(ox.hashes[s], remap[h], remap[t])
		}
	}
	for j, r := range remap {
		if r >= 0 {
			ix.next[r] = -1
			if nx := ox.stays(ox.next[j], remap); nx >= 0 {
				ix.next[r] = remap[nx]
			}
		}
	}
	for _, f := range ox.firsts {
		if h := ox.stays(f, remap); h >= 0 {
			ix.firsts = append(ix.firsts, remap[h])
		}
	}
	if !slices.IsSorted(ix.firsts) {
		slices.Sort(ix.firsts)
	}
	for _, ri := range fresh {
		ix.appendRow(ir, ri)
	}
	return ix
}

// stays returns the first row of the chain from old row j that stays
// (remap ≥ 0), or -1.
func (ox *rowIndex) stays(j int32, remap []int32) int32 {
	for j >= 0 && remap[j] < 0 {
		j = ox.next[j]
	}
	return j
}

// resync returns the next pair of identical tuples at or after nt[i] and
// ot[j] — the one fewest steps along both walks away — or the ends of
// both slices when none is left. Its cost is linear in the steps taken.
func resync(nt, ot []Tuple, i, j int) (ni, nj int) {
	if j >= len(ot) {
		return len(nt), j
	}
	seenN, seenO := map[*ast.Term]int{}, map[*ast.Term]int{}
	for d := 0; i+d < len(nt) || j+d < len(ot); d++ {
		if i+d < len(nt) {
			p := &nt[i+d][0]
			if k, ok := seenO[p]; ok {
				return i + d, k
			}
			seenN[p] = i + d
		}
		if j+d < len(ot) {
			p := &ot[j+d][0]
			if k, ok := seenN[p]; ok {
				return k, j + d
			}
			seenO[p] = j + d
		}
	}
	return len(nt), len(ot)
}

// stacked returns the frozen interner a derived base keeps, given the
// overlay ov that took its new constants over the predecessor's, which is
// a root or one delta level over a root. So is the result: one delta
// level over that root holding the delta's terms and ov's, at the ids
// they have through ov, or, once that level would hold more than
// 1/deltaShare of the root's terms, a new root holding all of them.
// Levels are copied, never extended in place: older bases and held
// Results still read them.
func (ov *interner) stacked() *interner {
	ov.freeze()
	lvls := []*interner{ov}
	if ov.under.under != nil {
		lvls = []*interner{ov.under, ov}
	}
	from := lvls[0].under // the root
	if (ov.size()-len(from.terms))*deltaShare <= len(from.terms) {
		from, lvls = lvls[0], lvls[1:]
	}
	out := &interner{
		under: from.under,
		off:   from.off,
		ids:   maps.Clone(from.ids),
		terms: slices.Clip(from.terms),
		keys:  slices.Clip(from.keys),
	}
	for _, l := range lvls {
		for i, t := range l.terms {
			out.ids[t] = l.off + uint32(i)
		}
		out.terms, out.keys = append(out.terms, l.terms...), append(out.keys, l.keys...)
	}
	return out
}
