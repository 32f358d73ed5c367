package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"testing"
	"time"

	sqo "repro"
)

// factModel is the fact set a dataset must hold, kept by a test from the
// batches it sends, by rendering.
type factModel map[string]sqo.Atom

// apply is a batch's effect: retractions, then insertions (a fact in both
// stays), or with replace the insertions alone.
func (m factModel) apply(adds, dels []sqo.Atom, replace bool) {
	if replace {
		clear(m)
	}
	for _, a := range dels {
		delete(m, a.String())
	}
	for _, a := range adds {
		m[a.String()] = a
	}
}

// buildDB is the snapshot a dataset used to rebuild on every update and
// the oracle for the one it now maintains: the fact set loaded from
// scratch in key-sorted order.
func (m factModel) buildDB() *sqo.DB {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	db := sqo.NewDB()
	for _, k := range keys {
		db.AddFact(m[k])
	}
	return db
}

func requireSnapshotIsFreshBuild(t *testing.T, label string, ds *dataset, m factModel) {
	t.Helper()
	got, want := ds.snapshot(), m.buildDB()
	if !reflect.DeepEqual(got.Preds(), want.Preds()) {
		t.Fatalf("%s: snapshot predicates %v, a fresh build has %v", label, got.Preds(), want.Preds())
	}
	for _, pred := range want.Preds() {
		if g, w := fmt.Sprint(got.Facts(pred)), fmt.Sprint(want.Facts(pred)); g != w {
			t.Fatalf("%s: %s in the snapshot\n     %s\nfresh %s", label, pred, g, w)
		}
		if g, w := got.Lookup(pred).Arity, want.Lookup(pred).Arity; g != w {
			t.Fatalf("%s: %s has arity %d in the snapshot, %d in a fresh build", label, pred, g, w)
		}
	}
	info := ds.describe()
	if info.Facts != len(m) || len(info.Predicates) != len(want.Preds()) {
		t.Fatalf("%s: describe = %+v over %d facts of %v", label, info, len(m), want.Preds())
	}
	for _, pred := range want.Preds() {
		if info.Predicates[pred] != want.Count(pred) {
			t.Fatalf("%s: describe counts %d facts of %s, want %d", label, info.Predicates[pred], pred, want.Count(pred))
		}
	}
}

// TestSnapshotHistoryIndependent: through 500 random add, retract and
// replace batches the maintained snapshot stays what a from-scratch
// key-sorted load of the same facts gives — predicates, tuple order,
// arities and the describe counts — every relation of a predicate the
// batch does not mention is carried over as the same object, a fact a
// batch names twice moves once, a replacement retracts what leaves in key order (the order its WAL record
// lists them in; d's keys sort below dd's), and a batch that would leave
// a predicate at two arities is refused from the maintained table and
// changes nothing.
func TestSnapshotHistoryIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	preds := []string{"a", "b", "c", "d", "dd"}
	fact := func() sqo.Atom {
		// Two-digit and one-digit constants: rendering order is not
		// numeric order, so "sorted by key" is not "sorted by value".
		src := fmt.Sprintf("a(%d).", rng.Intn(25))
		if p := preds[rng.Intn(len(preds))]; p != "a" {
			src = fmt.Sprintf("%s(%d, %d).", p, rng.Intn(25), rng.Intn(12))
		}
		return sqo.MustParseFacts(src)[0]
	}
	batch := func(n int) []sqo.Atom {
		out := make([]sqo.Atom, rng.Intn(n))
		for i := range out {
			out[i] = fact()
		}
		return out
	}
	ctx := context.Background()
	initial, m := batch(40), factModel{}
	m.apply(initial, nil, false)
	ds := newDataset("d", initial, time.Now())
	requireSnapshotIsFreshBuild(t, "new", ds, m)
	for step := 0; step < 500; step++ {
		label := fmt.Sprintf("batch %d", step)
		before := ds.snapshot()
		var adds, dels []sqo.Atom
		replace := step%10 == 9
		switch {
		case replace:
			adds = batch(60)
		case step%25 == 7: // one predicate leaves altogether, and may come back
			for _, a := range before.Facts("c") {
				dels = append(dels, a)
			}
		default:
			adds, dels = batch(6), batch(6)
			if len(adds) > 0 && rng.Intn(3) == 0 {
				dels = append(dels, adds[0])
			}
			if present := before.Facts("a"); len(present) > 0 && rng.Intn(4) == 0 {
				dels = append(dels, present[0], present[0]) // named twice, leaves once
			}
		}
		var persist func(adds, dels []sqo.Atom) error
		if replace {
			persist = func(_, dels []sqo.Atom) error {
				if !sort.SliceIsSorted(dels, func(i, j int) bool { return dels[i].String() < dels[j].String() }) {
					t.Fatalf("%s: retractions out of key order: %v", label, dels)
				}
				return nil
			}
		}
		if _, _, err := ds.update(ctx, adds, dels, replace, time.Now(), persist); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		m.apply(adds, dels, replace)
		requireSnapshotIsFreshBuild(t, label, ds, m)
		touched := map[string]bool{}
		for _, a := range append(adds, dels...) {
			touched[a.Pred] = true
		}
		after := ds.snapshot()
		for _, pred := range before.Preds() {
			if !replace && !touched[pred] && after.Lookup(pred) != before.Lookup(pred) {
				t.Fatalf("%s: relation %s was replaced though the batch does not mention it", label, pred)
			}
		}

		// b is used at arity 2 as long as one fact of it stays.
		if after.Count("b") > 0 {
			bad := sqo.MustParseFacts("b(1).")
			_, _, err := ds.update(ctx, bad, after.Facts("b")[1:], false, time.Now(), nil)
			var re *requestError
			if !errors.As(err, &re) || re.status != http.StatusBadRequest || re.code != "arity_mismatch" {
				t.Fatalf("%s: b at two arities: err = %v, want 400 arity_mismatch", label, err)
			}
			if ds.snapshot() != after {
				t.Fatalf("%s: a refused batch published a snapshot", label)
			}
			// With every fact of b leaving, the batch may change its arity.
			if step%50 == 0 {
				if _, _, err := ds.update(ctx, bad, after.Facts("b"), false, time.Now(), nil); err != nil {
					t.Fatalf("%s: b re-created at arity 1: %v", label, err)
				}
				m.apply(bad, after.Facts("b"), false)
				requireSnapshotIsFreshBuild(t, label+" (b/1)", ds, m)
				if _, _, err := ds.update(ctx, nil, bad, false, time.Now(), nil); err != nil {
					t.Fatal(err)
				}
				m.apply(nil, bad, false)
			}
		}
	}
}

const tcQuery = `path(X, Y) :- edge(X, Y). path(X, Y) :- path(X, Z), edge(Z, Y). ?- path.`

// TestReadersDoNotWaitForWriters parks an update inside its persist
// callback — d.mu held, the WAL append "in progress", nothing applied
// yet — and requires the dataset's readers to go on being served the
// pre-update snapshot: snapshot() returns, and a /v1/query completes
// with the old answers. Once the update is let through, the same query
// sees the new fact.
func TestReadersDoNotWaitForWriters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "g", "edge(1, 2). edge(2, 3).")
	ds, _ := s.datasets.get("g")

	query := func() []string {
		var resp queryResponse
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{"program": tcQuery, "dataset": "g"}, &resp)
		if code != http.StatusOK {
			t.Fatalf("query: %d %s", code, raw)
		}
		return resp.Answers
	}
	before := query()
	if len(before) != 3 {
		t.Fatalf("answers before the update = %v", before)
	}

	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, err := ds.update(context.Background(), sqo.MustParseFacts("edge(3, 4)."), nil, false, time.Now(),
			func(adds, dels []sqo.Atom) error {
				close(parked)
				<-release
				return nil
			})
		done <- err
	}()
	<-parked
	old := ds.snapshot()
	if old.Count("edge") != 2 {
		t.Fatalf("snapshot under a parked update holds %d edges, want the 2 from before it", old.Count("edge"))
	}
	if got := query(); !reflect.DeepEqual(got, before) {
		t.Fatalf("query under a parked update = %v, want the answers from before it %v", got, before)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ds.snapshot() == old {
		t.Fatal("the update published no snapshot")
	}
	if got := query(); len(got) != 6 {
		t.Fatalf("answers after the update = %v, want 6", got)
	}
}

// TestConcurrentReplaceLeavesOneBody: two PUTs over {a} with bodies {b}
// and {c} must leave {b} or {c}. The batch of a replacement is worked
// out inside update's critical section, so the second PUT — started
// while the first is parked in its WAL append, after its diff — diffs
// against what the first leaves and logs a batch that retracts b. When
// the diff was taken before update was entered, both PUTs diffed against
// {a}, the dataset ended as {b, c}, and the WAL recorded two batches
// that each retract a.
func TestConcurrentReplaceLeavesOneBody(t *testing.T) {
	ds := newDataset("d", sqo.MustParseFacts("p(a)."), time.Now())
	ctx := context.Background()
	type logged struct{ adds, dels string }
	var wal []logged
	record := func(adds, dels []sqo.Atom) error {
		wal = append(wal, logged{fmt.Sprint(adds), fmt.Sprint(dels)})
		return nil
	}
	parked, release := make(chan struct{}), make(chan struct{})
	first, second := make(chan error, 1), make(chan error, 1)
	go func() {
		_, _, err := ds.update(ctx, sqo.MustParseFacts("p(b)."), nil, true, time.Now(), func(adds, dels []sqo.Atom) error {
			close(parked)
			<-release
			return record(adds, dels)
		})
		first <- err
	}()
	<-parked
	go func() {
		_, _, err := ds.update(ctx, sqo.MustParseFacts("p(c)."), nil, true, time.Now(), record)
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("the second PUT finished (%v) while the first held the dataset", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for _, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(ds.snapshot().Facts("p")); got != "[p(c)]" {
		t.Fatalf("facts after both PUTs = %s, want the second body [p(c)]", got)
	}
	want := []logged{{"[p(b)]", "[p(a)]"}, {"[p(c)]", "[p(b)]"}}
	if !reflect.DeepEqual(wal, want) {
		t.Fatalf("WAL batches = %v, want %v", wal, want)
	}
	requireSnapshotIsFreshBuild(t, "after both PUTs", ds, factModel{"p(c)": sqo.MustParseFacts("p(c).")[0]})
}
