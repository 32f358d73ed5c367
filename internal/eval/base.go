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
// lengths; any mutation — AddFact, Rel creating a relation, or a direct
// Relation.Add — makes the stamp check fail and the next evaluation
// replaces the base. Clone starts without one.

type edbBase struct {
	in   *interner
	rels map[string]*irel
	rows int // tuples interned building this base
	// stamps record what the base was built from, for the currency check.
	stamps []relStamp
}

type relStamp struct {
	pred string
	rel  *Relation
	n    int
}

// current reports whether db still is what the base was built from.
func (b *edbBase) current(db *DB) bool {
	if len(db.rels) != len(b.stamps) {
		return false
	}
	for _, s := range b.stamps {
		if db.rels[s.pred] != s.rel || s.rel.Len() != s.n {
			return false
		}
	}
	return true
}

// emptyBase serves evaluations over a nil DB.
var emptyBase = func() *edbBase {
	b := &edbBase{in: newInterner()}
	b.in.freeze()
	return b
}()

// interned returns the DB's interned base, building it when there is
// none or the DB was mutated since. built reports whether this call did
// the interning. Safe for concurrent evaluations of one DB (the first
// builds, the rest wait); like every read of a DB, not safe against a
// concurrent mutation of it.
func (db *DB) interned() (base *edbBase, built bool) {
	if db == nil {
		return emptyBase, false
	}
	db.baseMu.Lock()
	defer db.baseMu.Unlock()
	if db.base != nil && db.base.current(db) {
		return db.base, false
	}
	db.base = buildBase(db)
	return db.base, true
}

// buildBase interns every relation of db in sorted-predicate order and
// tuple insertion order, so ids are a function of the DB's contents
// alone, never of the program that happened to be evaluated first.
func buildBase(db *DB) *edbBase {
	b := &edbBase{
		in:     newInterner(),
		rels:   make(map[string]*irel, len(db.rels)),
		stamps: make([]relStamp, 0, len(db.rels)),
	}
	for _, pred := range db.Preds() {
		rel := db.rels[pred]
		ir := newIrel(rel.Arity, rel.Len())
		buf := make([]uint32, rel.Arity)
		for _, t := range rel.tuples {
			for j, v := range t {
				buf[j] = b.in.intern(v)
			}
			ir.add(buf)
		}
		b.rels[pred] = ir
		b.rows += rel.Len()
		b.stamps = append(b.stamps, relStamp{pred: pred, rel: rel, n: rel.Len()})
	}
	b.in.freeze()
	return b
}
