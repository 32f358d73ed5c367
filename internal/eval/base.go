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
// changed: a relation whose stamp holds keeps its irel and indexes; a
// changed one copies the row of every tuple whose backing array the old
// relation held (tuples are never written once in a relation) and
// interns the rest; the interner is shared while no constant is new, and
// copied and extended otherwise. So ids depend on the DB's history, and
// nothing observable may: answers are ordered by row order and
// rendering, join orders by exact lengths and key counts, index chains
// by row order. Departed constants stay in a derived interner until it
// holds more than maxGrowth times the terms of its last from-scratch
// build plus growthSlack; the next derivation builds from scratch, which
// keeps a new constant O(1) amortized and the interner about twice a
// fresh one at most.

import (
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/ast"
)

const (
	maxGrowth   = 2
	growthSlack = 64
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
	stamps map[string]relStamp
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

// emptyBase serves evaluations over a nil DB.
var emptyBase = func() *edbBase {
	b := &edbBase{id: lastBaseID.Add(1), in: newInterner()}
	b.in.freeze()
	return b
}()

// interned returns the DB's interned base, building it — from the stale
// one, if there is one — when there is none or it is not current. built
// reports whether this call did the interning. Safe for concurrent
// evaluations of one DB (the first builds, the rest wait); like every
// read of a DB, not safe against a concurrent mutation of it.
func (db *DB) interned() (base *edbBase, built bool) {
	if db == nil {
		return emptyBase, false
	}
	db.baseMu.Lock()
	defer db.baseMu.Unlock()
	if db.base == nil || !db.base.current(db) {
		db.base, built = buildBase(db, db.base), true
	}
	return db.base, built
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
	case len(prev.in.terms)+len(in.terms) > maxGrowth*prev.full+growthSlack:
		return buildBase(db, nil)
	default:
		b.in, b.full = in.flattened(), prev.full
	}
	return b
}

// carryRows interns rel's tuples into a new irel, in order. A tuple whose
// backing array is that of one of oldTuples (the tuples old was built
// from, row for row) gets that row copied; the rest are looked up in in,
// and their number is returned. Two walks, one per slice, match identical
// tuples and resynchronize through resync after any run of insertions
// and deletions.
func carryRows(rel *Relation, oldTuples []Tuple, old *irel, in *interner) (*irel, int) {
	tuples := rel.tuples
	ir := newIrel(rel.Arity, len(tuples))
	buf := make([]uint32, rel.Arity)
	looked := 0
	for i, j := 0, 0; i < len(tuples); {
		if j < len(oldTuples) && &tuples[i][0] == &oldTuples[j][0] {
			ir.add(old.row(j))
			i, j = i+1, j+1
			continue
		}
		ni, nj := resync(tuples, oldTuples, i, j)
		for ; i < ni; i++ {
			for k, v := range tuples[i] {
				buf[k] = in.intern(v)
			}
			ir.add(buf)
			looked++
		}
		j = nj
	}
	return ir, looked
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

// flattened returns a frozen root interner with the overlay's terms and
// its frozen level's, at the ids they have through the overlay. The
// frozen level is copied, never extended in place: older bases and held
// Results still read it.
func (ov *interner) flattened() *interner {
	u := ov.under
	in := &interner{
		ids:   maps.Clone(u.ids),
		terms: append(slices.Clip(u.terms), ov.terms...),
		keys:  slices.Clip(u.keys),
	}
	for i, t := range ov.terms {
		in.ids[t] = ov.off + uint32(i)
		in.keys = append(in.keys, t.Key())
	}
	return in
}
