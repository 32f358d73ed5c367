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

// Relation is a set of same-arity tuples with hash indexes built on
// demand for bound-position lookups.
//
// Concurrency: any number of goroutines may read a relation (Len,
// Contains, Tuples, lookup) concurrently — the lazy index build inside
// lookup is internally synchronized. Mutation (Add) requires that no
// reader runs concurrently; the evaluator guarantees this by only
// adding tuples at single-threaded round barriers.
type Relation struct {
	Arity  int
	tuples []Tuple
	seen   map[string]bool
	// mu guards indexes: concurrent probes of the same un-indexed
	// position mask would otherwise race on the lazy build.
	mu sync.RWMutex
	// indexes maps a position-mask key ("0,2") to an index from the
	// key of the values at those positions to tuple slice indices.
	indexes map[string]map[string][]int
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{Arity: arity, seen: map[string]bool{}}
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
	k := t.Key()
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.tuples = append(r.tuples, t)
	// Maintain existing indexes incrementally instead of invalidating
	// them: evaluation adds tuples continuously and a full rebuild per
	// growth step would dominate the run time.
	idx := len(r.tuples) - 1
	r.mu.Lock()
	for mk, index := range r.indexes {
		pos := parseMask(mk)
		key := valsKeyAt(t, pos)
		index[key] = append(index[key], idx)
	}
	r.mu.Unlock()
	return true
}

// parseMask inverts maskKey.
func parseMask(mk string) []int {
	if mk == "" {
		return nil
	}
	var out []int
	n := 0
	for i := 0; i < len(mk); i++ {
		if mk[i] == ',' {
			out = append(out, n)
			n = 0
			continue
		}
		n = n*10 + int(mk[i]-'0')
	}
	return append(out, n)
}

// Contains reports membership.
func (r *Relation) Contains(t Tuple) bool { return r.seen[t.Key()] }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the stored tuples in insertion order. Callers must
// not modify the slice.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// lookup returns the indices of tuples whose values at positions pos
// equal vals, using (and lazily building) a hash index. It is safe for
// concurrent use by multiple readers: the lazy build is double-checked
// under an RWMutex, so two goroutines probing the same un-indexed
// position mask cannot race.
func (r *Relation) lookup(pos []int, vals []ast.Term) []int {
	mk := maskKey(pos)
	r.mu.RLock()
	idx, ok := r.indexes[mk]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		idx, ok = r.indexes[mk]
		if !ok {
			idx = map[string][]int{}
			for i, t := range r.tuples {
				k := valsKeyAt(t, pos)
				idx[k] = append(idx[k], i)
			}
			if r.indexes == nil {
				r.indexes = map[string]map[string][]int{}
			}
			r.indexes[mk] = idx
		}
		r.mu.Unlock()
	}
	return idx[valsKey(vals)]
}

func maskKey(pos []int) string {
	var b strings.Builder
	for i, p := range pos {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", p)
	}
	return b.String()
}

func valsKeyAt(t Tuple, pos []int) string {
	var b strings.Builder
	for i, p := range pos {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(t[p].Key())
	}
	return b.String()
}

func valsKey(vals []ast.Term) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// DB is a database: a map from predicate names to relations. A nil *DB
// reads as the empty database in Lookup, Contains and evaluation.
type DB struct {
	rels map[string]*Relation
	// base caches the interned form the compiled engine evaluates over
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
// already deduplicated, so tuples and seen keys are copied directly —
// no tuple is re-rendered or re-hashed. Indexes and the interned base
// are not copied; the clone rebuilds them lazily on first use.
func (db *DB) Clone() *DB {
	out := NewDB()
	for p, r := range db.rels {
		nr := &Relation{
			Arity:  r.Arity,
			tuples: append([]Tuple(nil), r.tuples...),
			seen:   make(map[string]bool, len(r.seen)),
		}
		for k := range r.seen {
			nr.seen[k] = true
		}
		out.rels[p] = nr
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
