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
// A mutation does not rebuild the snapshot; its successor shares every
// relation the batch leaves alone and replaces the rest, each fact
// entering or leaving at its key-sorted position, so the order of a
// relation's tuples — which evaluation order and provenance follow — is
// the one a from-scratch load of the same facts would give, whatever the
// update history. A snapshot also carries its interned base (eval's
// base.go) from query to query: the first query to evaluate a new
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
	preds        map[string]*predFacts // the fact set, by predicate
	lastModified time.Time

	views atomic.Pointer[map[string]*matView] // read with viewMap; replaced under mu
}

// predFacts is one predicate's share of the fact set: its arity and its
// facts' keys — their renderings — in ascending order, parallel to the
// tuples of the snapshot's relation for it.
type predFacts struct {
	arity int
	keys  []string
}

// has reports whether the fact set holds pred's fact with key k. The
// caller holds d.mu or owns the dataset.
func (d *dataset) has(pred, k string) bool {
	pf := d.preds[pred]
	if pf == nil {
		return false
	}
	i := sort.SearchStrings(pf.keys, k)
	return i < len(pf.keys) && pf.keys[i] == k
}

// matView is one materialized view attached to a dataset.
type matView struct {
	name      string
	program   *sqo.Program
	optimized bool
	view      *sqo.View
	createdAt time.Time
}

func newDataset(name string, facts []sqo.Atom, now time.Time) *dataset {
	ds := &dataset{
		name:         name,
		preds:        map[string]*predFacts{},
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
	preds, facts := map[string]int{}, 0
	for p, pf := range d.preds {
		preds[p] = len(pf.keys)
		facts += len(pf.keys)
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
	arity := map[string]int{}
	for _, a := range adds {
		if pf := d.preds[a.Pred]; pf != nil && len(pf.keys) > leaving[a.Pred] {
			arity[a.Pred] = pf.arity
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
// one copy of its tuple headers; nothing is sorted, keyed or hashed but
// the batch. The caller holds d.mu or owns the dataset.
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
		var keys []string
		var tuples []sqo.Tuple
		if pf := d.preds[pred]; pf != nil {
			keys, tuples = pf.keys, db.Lookup(pred).Tuples()
		}
		n := len(keys) + len(es)
		nk, nt, at := make([]string, 0, n), make([]sqo.Tuple, 0, n), 0
		for _, e := range es {
			i := at + sort.SearchStrings(keys[at:], e.key)
			nk, nt, at = append(nk, keys[at:i]...), append(nt, tuples[at:i]...), i
			if e.add {
				nk, nt = append(nk, e.key), append(nt, e.args)
			} else {
				at++ // keys[i] is the fact that leaves
			}
		}
		nk, nt = append(nk, keys[at:]...), append(nt, tuples[at:]...)
		delete(d.preds, pred)
		if len(nk) > 0 {
			d.preds[pred] = &predFacts{arity: len(nt[0]), keys: nk}
		}
		db = db.Replace(pred, nt)
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
	targetKeys := make(map[string]bool, len(target))
	for _, a := range target {
		k := a.String()
		if !targetKeys[k] {
			targetKeys[k] = true
			if !d.has(a.Pred, k) {
				adds = append(adds, a)
			}
		}
	}
	// The facts that leave, in key order: the predicates in order, and
	// each one's keys, which are in order already. That is the order of
	// all the keys sorted at once, because a key is its predicate followed
	// by "(" or by nothing, and "(" sorts below every character a
	// predicate name can hold.
	preds := make([]string, 0, len(d.preds))
	for p := range d.preds {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	db := d.db.Load()
	for _, p := range preds {
		tuples := db.Lookup(p).Tuples()
		for i, k := range d.preds[p].keys {
			if !targetKeys[k] {
				dels = append(dels, sqo.Atom{Pred: p, Args: tuples[i]})
			}
		}
	}
	return adds, dels
}

// datasetStore is the concurrent registry of named datasets.
type datasetStore struct {
	mu      sync.RWMutex
	byName  map[string]*dataset
	metrics *Metrics
}

func newDatasetStore(m *Metrics) *datasetStore {
	return &datasetStore{byName: map[string]*dataset{}, metrics: m}
}

// create registers a new dataset; created is false (and the existing
// dataset is returned) when the name is already taken. A non-nil
// persist callback runs while the registry lock is held, after the
// name is known to be free and before the dataset becomes visible: a
// persist error aborts the create. Holding the lock across the
// write-ahead append pins the WAL order to the registry order — no
// fact append for the dataset can reach the log before its create
// record.
func (st *datasetStore) create(name string, facts []sqo.Atom, now time.Time, persist func() error) (ds *dataset, created bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if existing, ok := st.byName[name]; ok {
		return existing, false, nil
	}
	if persist != nil {
		if err := persist(); err != nil {
			return nil, false, err
		}
	}
	ds = newDataset(name, facts, now)
	st.byName[name] = ds
	if st.metrics != nil {
		st.metrics.Datasets.Store(int64(len(st.byName)))
	}
	return ds, true, nil
}

// get returns the dataset named name.
func (st *datasetStore) get(name string) (*dataset, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ds, ok := st.byName[name]
	return ds, ok
}

// delete removes the dataset named name, returning it so the caller
// can release per-view accounting. A non-nil persist callback runs
// while the registry lock is held, before the name is freed: the
// delete record reaches the WAL before any create record can reuse
// the name. A persist error aborts the delete.
func (st *datasetStore) delete(name string, persist func() error) (*dataset, bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ds, ok := st.byName[name]
	if !ok {
		return nil, false, nil
	}
	if persist != nil {
		if err := persist(); err != nil {
			return nil, false, err
		}
	}
	delete(st.byName, name)
	if st.metrics != nil {
		st.metrics.Datasets.Store(int64(len(st.byName)))
	}
	return ds, true, nil
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
