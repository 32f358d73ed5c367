package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sqo "repro"
)

// dataset is one registered fact set plus its attached materialized
// views. The query-facing database is an immutable snapshot, published
// through an atomic pointer: a query loads it and never touches d.mu, so
// reads do not queue behind a writer's WAL append or view maintenance.
// The snapshot is the fact set: nothing else holds it. A mutation does
// not rebuild the snapshot; its successor shares every relation the
// batch leaves alone and replaces the rest, each fact entering or leaving
// at its key-sorted position (factKey), so the order of a relation's
// tuples — which evaluation order and provenance follow — is the one a
// from-scratch load of the same facts would give, whatever the update
// history. A snapshot also carries its interned base (eval's base.go)
// from query to query: the first query to evaluate a new
// snapshot derives it from its predecessor's, interning only the facts
// the update added, and every later query on that snapshot reuses it.
//
// The view registry is published the same way — an immutable map behind
// an atomic pointer, replaced whole by putView and dropViews — so a view
// read finds its view without d.mu.
//
// d.mu is the writers' lock, for the facts and for the view registry.
// update holds it across the arity check, the WAL append, the
// publication of the new
// snapshot — after the append, so no query sees a fact that is not yet
// durable — and the maintenance of every view, which keeps WAL order,
// snapshot order and view order one order. Attached views are
// maintained incrementally: the same add/retract batch that mutates the
// fact set is pushed through sqo.View.Apply, which propagates deltas
// instead of re-evaluating.
type dataset struct {
	name string
	db   atomic.Pointer[sqo.DB] // the published snapshot of facts

	mu           sync.Mutex
	lastModified time.Time

	views atomic.Pointer[map[string]*matView] // read with viewMap; replaced under mu
}

// factKey is the key of pred's fact t: its rendering, Atom.String.
func factKey(pred string, t sqo.Tuple) string { return sqo.Atom{Pred: pred, Args: t}.String() }

// search returns where the fact with key k sits in tuples, pred's
// relation in key order, or would sit, and whether it is there.
func search(pred string, tuples []sqo.Tuple, k string) (int, bool) {
	i := sort.Search(len(tuples), func(i int) bool { return factKey(pred, tuples[i]) >= k })
	return i, i < len(tuples) && factKey(pred, tuples[i]) == k
}

// tuples returns pred's relation in a snapshot, in key order.
func tuples(db *sqo.DB, pred string) []sqo.Tuple {
	if r := db.Lookup(pred); r != nil {
		return r.Tuples()
	}
	return nil
}

// has reports whether the fact set holds pred's fact with key k. The
// caller holds d.mu or owns the dataset.
func (d *dataset) has(pred, k string) bool {
	_, ok := search(pred, tuples(d.db.Load(), pred), k)
	return ok
}

// matView is one materialized view attached to a dataset.
type matView struct {
	name      string
	program   *sqo.Program
	optimized bool
	view      *sqo.View
}

func newDataset(name string, facts []sqo.Atom, now time.Time) *dataset {
	ds := &dataset{
		name:         name,
		lastModified: now,
	}
	ds.views.Store(&map[string]*matView{})
	ds.db.Store(sqo.NewDB())
	ds.applyFacts(facts, nil)
	return ds
}

// snapshot returns the current immutable database.
func (d *dataset) snapshot() *sqo.DB { return d.db.Load() }

// viewMap returns the current view registry. The map is never written
// again; no lock is needed to read it.
func (d *dataset) viewMap() map[string]*matView { return *d.views.Load() }

// putView publishes a registry in which name is bound to mv, or to
// nothing when mv is nil. The caller holds d.mu.
func (d *dataset) putView(name string, mv *matView) {
	next := map[string]*matView{}
	for n, v := range d.viewMap() {
		next[n] = v
	}
	if mv != nil {
		next[name] = mv
	} else {
		delete(next, name)
	}
	d.views.Store(&next)
}

// dropViews empties the registry and returns how many views it held.
func (d *dataset) dropViews() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.viewMap())
	d.views.Store(&map[string]*matView{})
	return n
}

// DatasetInfo describes one registered dataset over the wire.
type DatasetInfo struct {
	Name         string         `json:"name"`
	Facts        int            `json:"facts"`
	Predicates   map[string]int `json:"predicates"`
	LastModified time.Time      `json:"last_modified"`
	Views        []string       `json:"views,omitempty"`
}

func (d *dataset) describe() DatasetInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.describeLocked()
}

func (d *dataset) describeLocked() DatasetInfo {
	db := d.db.Load()
	preds, facts := map[string]int{}, 0
	for _, p := range db.Preds() {
		preds[p] = db.Count(p)
		facts += preds[p]
	}
	views := make([]string, 0, len(d.viewMap()))
	for name := range d.viewMap() {
		views = append(views, name)
	}
	sort.Strings(views)
	return DatasetInfo{
		Name:         d.name,
		Facts:        facts,
		Predicates:   preds,
		LastModified: d.lastModified,
		Views:        views,
	}
}

// viewUpdate reports the effect of one dataset mutation on one
// attached view.
type viewUpdate struct {
	Name           string  `json:"name"`
	AnswersAdded   int     `json:"answers_added"`
	AnswersRemoved int     `json:"answers_removed"`
	ApplyMS        float64 `json:"apply_ms"`
	// Error is set when maintenance failed (deadline, budget); the view
	// is left broken and rebuilds itself on next access.
	Error string `json:"error,omitempty"`
}

// factUpdate is the outcome of one mutation on a dataset.
type factUpdate struct {
	added, removed int
	views          []viewUpdate
}

// arityConflict reports, as a 400 arity_mismatch, the first fact whose
// predicate arity already records at another arity; it records the
// arities of the facts it passes. A relation holds tuples of one arity
// (eval.Relation.Add panics otherwise), so every batch from outside is
// held to this before it is logged or applied.
func arityConflict(arity map[string]int, facts []sqo.Atom) error {
	for _, a := range facts {
		if ar, ok := arity[a.Pred]; ok && ar != len(a.Args) {
			return &requestError{status: http.StatusBadRequest, code: "arity_mismatch",
				msg: fmt.Sprintf("predicate %s is used with arity %d and with arity %d", a.Pred, ar, len(a.Args))}
		}
		arity[a.Pred] = len(a.Args)
	}
	return nil
}

// update is one mutation of the dataset, start to finish under its
// lock: work out the batch when the caller names the outcome instead
// (replace: adds is the fact set to end up with, and diffing it here is
// what makes two concurrent PUTs leave one of their two bodies), check
// that the fact set stays one arity per predicate once the batch is in
// (dels leave first, so a PUT may change a predicate's arity), then
// persist — nil in memory and on replay; the WAL append otherwise, which
// keeps one dataset's records in application order — then apply. Nothing
// is logged or applied when it returns an error.
func (d *dataset) update(ctx context.Context, adds, dels []sqo.Atom, replace bool, now time.Time, persist func(adds, dels []sqo.Atom) error) (factUpdate, DatasetInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if replace {
		adds, dels = d.diffLocked(adds)
	}
	// A predicate keeps its arity unless every fact of it leaves.
	gone, leaving := make(map[string]bool, len(dels)), map[string]int{}
	for _, a := range dels {
		if k := a.String(); !gone[k] {
			gone[k] = true
			if d.has(a.Pred, k) {
				leaving[a.Pred]++
			}
		}
	}
	arity, db := map[string]int{}, d.db.Load()
	for _, a := range adds {
		if r := db.Lookup(a.Pred); r != nil && r.Len() > leaving[a.Pred] {
			arity[a.Pred] = r.Arity
		}
	}
	if err := arityConflict(arity, adds); err != nil {
		return factUpdate{}, DatasetInfo{}, err
	}
	if persist != nil {
		if err := persist(adds, dels); err != nil {
			return factUpdate{}, DatasetInfo{}, err
		}
	}
	up := d.updateLocked(ctx, adds, dels, now)
	return up, d.describeLocked(), nil
}

// edit is one fact entering (add) or leaving a predicate's relation.
type edit struct {
	key  string
	args []sqo.Term
	add  bool
}

// applyFacts applies retractions then insertions to the canonical fact
// set (an atom appearing in both is a no-op, matching sqo.View.Apply's
// delete-then-insert semantics) and publishes the snapshot that follows
// from it: the predecessor with the relations of the touched predicates
// replaced. What lies between two edits of a relation is copied in one
// piece, so a fact costs a binary search for its place and the relation
// one copy of its tuple headers; nothing is sorted or hashed but the
// batch, and nothing keyed but the batch and the tuples its searches
// pass. The caller holds d.mu or owns the dataset.
func (d *dataset) applyFacts(adds, dels []sqo.Atom) (added, removed int) {
	addKeys := make(map[string]bool, len(adds))
	for _, a := range adds {
		addKeys[a.String()] = true
	}
	// moved holds the keys of the facts the batch has taken out or put in
	// so far, so that a fact named twice moves once.
	moved := map[string]bool{}
	edits := map[string][]edit{}
	for _, a := range dels {
		k := a.String()
		if !addKeys[k] && !moved[k] && d.has(a.Pred, k) {
			moved[k] = true
			removed++
			edits[a.Pred] = append(edits[a.Pred], edit{key: k})
		}
	}
	for _, a := range adds {
		k := a.String()
		if !moved[k] && !d.has(a.Pred, k) {
			moved[k] = true
			added++
			edits[a.Pred] = append(edits[a.Pred], edit{k, a.Args, true})
		}
	}
	db := d.db.Load()
	for pred, es := range edits {
		sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
		ts := tuples(db, pred)
		nt, at := make([]sqo.Tuple, 0, len(ts)+len(es)), 0
		for _, e := range es {
			i, _ := search(pred, ts[at:], e.key)
			nt, at = append(nt, ts[at:at+i]...), at+i
			if e.add {
				nt = append(nt, e.args)
			} else {
				at++ // ts[at] is the fact that leaves
			}
		}
		db = db.Replace(pred, append(nt, ts[at:]...))
	}
	d.db.Store(db)
	return added, removed
}

// updateLocked applies the batch to the fact set and the snapshot, and
// pushes it through every attached view. A view whose maintenance fails
// is left broken — it repairs itself on the next read — so the dataset
// mutation itself always succeeds. The caller, update, holds d.mu.
func (d *dataset) updateLocked(ctx context.Context, adds, dels []sqo.Atom, now time.Time) factUpdate {
	var up factUpdate
	up.added, up.removed = d.applyFacts(adds, dels)
	d.lastModified = now

	views := d.viewMap()
	names := make([]string, 0, len(views))
	for name := range views {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := views[name]
		start := time.Now()
		ch, err := mv.view.ApplyCtx(ctx, adds, dels)
		vu := viewUpdate{
			Name:    name,
			ApplyMS: float64(time.Since(start).Microseconds()) / 1000,
		}
		if err != nil {
			vu.Error = err.Error()
		} else {
			vu.AnswersAdded = len(ch.Added)
			vu.AnswersRemoved = len(ch.Removed)
		}
		up.views = append(up.views, vu)
	}
	return up
}

// diffLocked computes the adds and retracts that turn the current
// fact set into target, for PUT-replacement of a dataset with live
// views. Callers hold d.mu.
func (d *dataset) diffLocked(target []sqo.Atom) (adds, dels []sqo.Atom) {
	keys, wanted := make([]string, len(target)), make(map[string]bool, len(target))
	for i, a := range target {
		keys[i] = a.String()
		wanted[keys[i]] = true
	}
	// The facts that leave, in key order: the predicates in order, and
	// each one's tuples, which are in key order already. That is the
	// order of all the keys sorted at once, because a key is its
	// predicate followed by "(" or by nothing, and "(" sorts below every
	// character a predicate name can hold.
	held := map[string]bool{}
	db := d.db.Load()
	for _, p := range db.Preds() {
		for _, t := range db.Lookup(p).Tuples() {
			k := factKey(p, t)
			held[k] = true
			if !wanted[k] {
				dels = append(dels, sqo.Atom{Pred: p, Args: t})
			}
		}
	}
	// The facts that enter, in target order, each once.
	for i, a := range target {
		if !held[keys[i]] {
			held[keys[i]] = true
			adds = append(adds, a)
		}
	}
	return adds, dels
}

// datasetStore is the concurrent registry of named datasets. Only the
// dataset operations (ops.go) add or remove one.
type datasetStore struct {
	mu     sync.RWMutex
	byName map[string]*dataset
}

// get returns the dataset named name, or a 404 unknown_dataset.
func (st *datasetStore) get(name string) (*dataset, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ds, ok := st.byName[name]; ok {
		return ds, nil
	}
	return nil, unknownDataset(name)
}

// list describes all datasets, sorted by name.
func (st *datasetStore) list() []DatasetInfo {
	st.mu.RLock()
	dss := make([]*dataset, 0, len(st.byName))
	for _, ds := range st.byName {
		dss = append(dss, ds)
	}
	st.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(dss))
	for _, ds := range dss {
		out = append(out, ds.describe())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
