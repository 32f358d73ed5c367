// Package eval implements bottom-up evaluation of the datalog dialect
// of package ast: naive and semi-naive fixpoint computation with
// hash-indexed joins, negated EDB subgoals, and dense-order comparison
// filters. The evaluator reports instrumentation (rule firings, join
// probes, derived tuples) so that the effect of semantic query
// optimization can be observed independently of wall-clock time.
package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
)

// Tuple is a row: a sequence of constant terms.
type Tuple []ast.Term

// Key returns a canonical string key for the tuple.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// String renders the tuple as (v1, ..., vn).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a set of same-arity tuples in insertion order. Evaluation
// joins over the interned copy of it (see base.go), not over this.
//
// The Tuple.Key set behind Contains and Add is built from the tuples on
// first use: the relations an evaluation returns arrive deduplicated
// and are mostly only listed (Tuples, Facts), so they never pay for a
// key string per tuple.
//
// Concurrency: any number of goroutines may read a relation (Len,
// Contains, Tuples) concurrently — the key set is built once, whichever
// reader needs it first. Mutation (Add) requires that no reader runs
// concurrently.
type Relation struct {
	Arity    int
	tuples   []Tuple
	seenOnce sync.Once
	seen     map[string]bool // use keys()
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{Arity: arity}
}

// keys returns the key set, building it on first use.
func (r *Relation) keys() map[string]bool {
	r.seenOnce.Do(func() {
		r.seen = make(map[string]bool, len(r.tuples))
		for _, t := range r.tuples {
			r.seen[t.Key()] = true
		}
	})
	return r.seen
}

// Add inserts the tuple, reporting whether it was new. It panics on an
// arity mismatch or a non-constant term.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("eval: arity mismatch: tuple %s into arity-%d relation", t, r.Arity))
	}
	for _, v := range t {
		if v.IsVar() {
			panic("eval: variable in tuple " + t.String())
		}
	}
	seen, k := r.keys(), t.Key()
	if seen[k] {
		return false
	}
	seen[k] = true
	r.tuples = append(r.tuples, t)
	return true
}

// Contains reports membership.
func (r *Relation) Contains(t Tuple) bool { return r.keys()[t.Key()] }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the stored tuples in insertion order. Callers must
// not modify the slice.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// DB is a database: a map from predicate names to relations. A nil *DB
// reads as the empty database in Lookup, Contains and evaluation.
type DB struct {
	rels map[string]*Relation
	// base caches the interned form evaluation runs over
	// (see base.go); baseMu serializes its lazy build.
	baseMu sync.Mutex
	base   *edbBase
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{rels: map[string]*Relation{}} }

// Rel returns the relation for pred, creating an empty one of the
// given arity if absent.
func (db *DB) Rel(pred string, arity int) *Relation {
	r, ok := db.rels[pred]
	if !ok {
		r = NewRelation(arity)
		db.rels[pred] = r
	}
	return r
}

// Lookup returns the relation for pred, or nil if absent.
func (db *DB) Lookup(pred string) *Relation {
	if db == nil {
		return nil
	}
	return db.rels[pred]
}

// AddFact inserts a ground atom, reporting whether it was new.
func (db *DB) AddFact(a ast.Atom) bool {
	if !a.Ground() {
		panic("eval: AddFact on non-ground atom " + a.String())
	}
	return db.Rel(a.Pred, a.Arity()).Add(Tuple(a.Args))
}

// AddFacts inserts a batch of ground atoms.
func (db *DB) AddFacts(atoms []ast.Atom) {
	for _, a := range atoms {
		db.AddFact(a)
	}
}

// Contains reports whether the ground atom is present.
func (db *DB) Contains(a ast.Atom) bool {
	r := db.Lookup(a.Pred)
	if r == nil {
		return false
	}
	return r.Contains(Tuple(a.Args))
}

// Count returns the number of tuples for pred (0 if absent).
func (db *DB) Count(pred string) int {
	if r := db.rels[pred]; r != nil {
		return r.Len()
	}
	return 0
}

// Preds returns the predicate names present, sorted.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the database. The source relations are
// already deduplicated, so tuples are copied directly; each copy builds
// its key set when it first needs one. The interned base is not copied;
// the clone rebuilds it lazily on first use.
func (db *DB) Clone() *DB {
	out := NewDB()
	for p, r := range db.rels {
		out.rels[p] = &Relation{Arity: r.Arity, tuples: append([]Tuple(nil), r.tuples...)}
	}
	return out
}

// Replace returns a database that shares every relation of db but
// pred's, which holds tuples in the order given, or is gone when there
// are none. tuples are distinct, of one arity and the relation's from
// now on: they are neither copied nor keyed, so replacing a relation
// costs nothing per tuple and nothing at all for the rest of the DB. The
// new database starts with db's interned base, from which its first
// evaluation derives its own (base.go), interning only the tuples db did
// not hold.
func (db *DB) Replace(pred string, tuples []Tuple) *DB {
	out := &DB{rels: make(map[string]*Relation, len(db.rels)+1)}
	db.baseMu.Lock()
	out.base = db.base
	db.baseMu.Unlock()
	for p, r := range db.rels {
		out.rels[p] = r
	}
	delete(out.rels, pred)
	if len(tuples) > 0 {
		out.rels[pred] = &Relation{Arity: len(tuples[0]), tuples: tuples}
	}
	return out
}

// Facts returns all tuples of pred as ground atoms, in insertion
// order.
func (db *DB) Facts(pred string) []ast.Atom {
	r := db.rels[pred]
	if r == nil {
		return nil
	}
	out := make([]ast.Atom, r.Len())
	for i, t := range r.tuples {
		out[i] = ast.NewAtom(pred, t...)
	}
	return out
}

// SortedFacts returns all tuples of pred rendered as strings, sorted;
// convenient for order-insensitive comparisons in tests.
func (db *DB) SortedFacts(pred string) []string {
	facts := db.Facts(pred)
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.String()
	}
	sort.Strings(out)
	return out
}
