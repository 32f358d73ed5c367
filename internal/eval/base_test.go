package eval

// Tests for the interned base (base.go): a DB evaluated before answers
// exactly like one nothing has touched, mutations are seen by the next
// evaluation, clones never share a base with their source, and
// concurrent evaluations of one DB share one build.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// TestSharedBaseDifferential: with and without magic, evaluating over one long-lived DB (whose base every configuration
// after the first reuses) gives the same relations, Stats and provenance
// as evaluating over a fresh clone (which builds its own).
func TestSharedBaseDifferential(t *testing.T) {
	progs := map[string]*ast.Program{
		"tc-point": parser.MustParseProgram(`
			path(X, Y) :- edge(X, Y).
			path(X, Y) :- path(X, Z), edge(Z, Y).
			?- path(2003, Y).`),
		"tc-filter-neg": parser.MustParseProgram(`
			path(X, Y) :- edge(X, Y), !blocked(X), X < 4015.
			path(X, Y) :- edge(X, Z), path(Z, Y), Y != 17.
			far(X) :- path(7, X), edge(X, Y).
			?- far.`),
	}
	shared := disjointChainsDB(8, 20)
	shared.AddFact(ast.NewAtom("blocked", ast.N(1003)))
	shared.AddFact(ast.NewAtom("unused", ast.S("x"), ast.N(7)))
	if _, _, err := Eval(progs["tc-point"], shared); err != nil { // build the base up front
		t.Fatal(err)
	}

	for name, p := range progs {
		reused := runEngine(t, p, shared, Options{})
		fresh := runEngine(t, p, shared.Clone(), Options{})
		requireSameRun(t, name+" reused vs fresh", reused, fresh)
		if reused.stats.EDBRowsInterned != 0 {
			t.Fatalf("%s: reused base interned %d rows", name, reused.stats.EDBRowsInterned)
		}
		if want := int64(8*20 + 2); fresh.stats.EDBRowsInterned != want {
			t.Fatalf("%s: fresh DB interned %d rows, want %d", name, fresh.stats.EDBRowsInterned, want)
		}

		for _, magic := range []MagicMode{MagicOff, MagicAuto} {
			opts := Options{Magic: magic}
			rt, rs, err := QueryCtx(context.Background(), p, shared, opts)
			if err != nil {
				t.Fatalf("%s magic=%s: %v", name, magic, err)
			}
			ft, fs, err := QueryCtx(context.Background(), p, shared.Clone(), opts)
			if err != nil {
				t.Fatalf("%s magic=%s: %v", name, magic, err)
			}
			if !reflect.DeepEqual(rt, ft) || !rs.Equal(fs) {
				t.Fatalf("%s magic=%s: reused vs fresh differ:\n%v %+v\n%v %+v", name, magic, rt, rs, ft, fs)
			}
		}
	}
}

func requireSameRun(t *testing.T, label string, a, b engineRun) {
	t.Helper()
	if !a.stats.Equal(&b.stats) {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", label, a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.preds, b.preds) {
		t.Fatalf("%s: relations differ:\n%v\n%v", label, a.preds, b.preds)
	}
	if a.prov != b.prov {
		t.Fatalf("%s: provenance differs:\n%s\n%s", label, a.prov, b.prov)
	}
}

// TestBaseSeesMutation: every way of changing a DB between two
// evaluations — AddFact, a direct Relation.Add, a relation created
// through Rel — is visible to the second.
func TestBaseSeesMutation(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		hit(Y) :- path(0, Y), mark(Y).
		?- hit.`)
	db := chainDB(5)
	count := func(pred string) (int, int64) {
		t.Helper()
		idb, stats, err := Eval(p, db)
		if err != nil {
			t.Fatal(err)
		}
		return idb.Count(pred), stats.EDBRowsInterned
	}
	if n, interned := count("path"); n != 15 || interned != 5 {
		t.Fatalf("initial: path=%d interned=%d, want 15 and 5", n, interned)
	}
	if n, interned := count("path"); n != 15 || interned != 0 {
		t.Fatalf("unchanged DB: path=%d interned=%d, want 15 and 0 (base reused)", n, interned)
	}
	db.AddFact(ast.NewAtom("edge", ast.N(5), ast.N(6)))
	if n, interned := count("path"); n != 21 || interned != 1 {
		t.Fatalf("after AddFact: path=%d interned=%d, want 21 and 1 (the stale base's rows copied)", n, interned)
	}
	db.Lookup("edge").Add(Tuple{ast.N(6), ast.N(7)})
	if n, _ := count("path"); n != 28 {
		t.Fatalf("after Relation.Add: path=%d, want 28", n)
	}
	db.Rel("mark", 1).Add(Tuple{ast.N(7)})
	if n, _ := count("hit"); n != 1 {
		t.Fatalf("after Rel+Add: hit=%d, want 1", n)
	}
}

// TestCloneNeverSharesBase is sqod's per-request "facts" path: a clone
// of an evaluated snapshot, extended with extra facts, sees them; the
// snapshot does not, and keeps serving from the base it already had.
func TestCloneNeverSharesBase(t *testing.T) {
	p, snapshot := tcPointQuery(t)
	want, _, err := Query(p, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	req := snapshot.Clone()
	req.AddFacts([]ast.Atom{ast.NewAtom("edge", ast.N(10), ast.N(77))})
	got, _, err := Query(p, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("clone with an extra edge: %d answers, want %d", len(got), len(want)+1)
	}
	again, stats, err := Query(p, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answerSet(again), answerSet(want)) {
		t.Fatalf("per-request facts leaked into the snapshot:\n got %v\nwant %v", answerSet(again), answerSet(want))
	}
	if stats.EDBRowsInterned != 0 {
		t.Fatalf("snapshot rebuilt its base (%d rows) after a clone was mutated", stats.EDBRowsInterned)
	}
}

// TestConcurrentQueriesShareBase: concurrent evaluations of one fresh
// DB agree, and exactly one of them builds the base. Run under -race.
func TestConcurrentQueriesShareBase(t *testing.T) {
	p, db := tcPointQuery(t)
	want, _, err := Query(p, db.Clone())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		builds int
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, stats, err := QueryCtx(context.Background(), p, db, DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(answerSet(got), answerSet(want)) {
				t.Errorf("answers differ: got %v want %v", answerSet(got), answerSet(want))
			}
			if stats.EDBRowsInterned > 0 {
				mu.Lock()
				builds++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("%d of %d concurrent queries built the base, want exactly 1", builds, n)
	}
}

// derivedPrograms read every relation TestDerivedBaseDifferential's walks
// update; flip is read at whichever arity it has.
var derivedPrograms = map[string]*ast.Program{
	"named": parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		named(X, N) :- path(1, X), label(X, N), !mark(X).
		?- named.`),
	"flip1": parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		seen(X) :- flip(X), path(1, X), keep(X).
		?- seen.`),
	"flip2": parser.MustParseProgram(`
		seen(X) :- flip(X, Y), edge(Y, X).
		?- seen.`),
}

// pointProgram is a goal-directed query from c, whose constant the base
// may or may not hold.
func pointProgram(c ast.Term) *ast.Program {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		?- path(1, Y).`)
	p.Goal[0] = c
	return p
}

// requireSameAsClone compares everything observable of p over db —
// QueryCtx answers in their order and Stats, and the relations, Stats
// and provenance of a full evaluation — with the same over a Clone of
// db, which builds its base from scratch. It returns the EDBRowsInterned
// of its first evaluation over db.
func requireSameAsClone(t *testing.T, label string, p *ast.Program, db *DB) int64 {
	t.Helper()
	ctx := context.Background()
	got, gs, err := QueryCtx(ctx, p, db, DefaultOptions())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, ws, err := QueryCtx(ctx, p, db.Clone(), DefaultOptions())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) || !gs.Equal(ws) {
		t.Fatalf("%s: derived vs fresh base differ:\n%v %+v\n%v %+v", label, got, gs, want, ws)
	}
	opts := Options{}
	requireSameRun(t, label, runEngine(t, p, db, opts), runEngine(t, p, db.Clone(), opts))
	return gs.EDBRowsInterned
}

// derivedWalk draws the random updates of one sequence.
type derivedWalk struct {
	rng   *rand.Rand
	fresh int      // the new constants so far are 1000+k and "s<k>", k ≤ fresh
	last  ast.Term // the newest of them
}

// constant returns a term for a new tuple: mostly one the DB may hold
// already, sometimes a number or a string no tuple has carried before.
func (w *derivedWalk) constant() ast.Term {
	switch r := w.rng.Intn(10); {
	case r < 6:
		return ast.N(float64(1 + w.rng.Intn(30)))
	case r < 8:
		w.fresh++
		w.last = ast.N(float64(1000 + w.fresh))
	default:
		w.fresh++
		w.last = ast.S(fmt.Sprintf("s%d", w.fresh))
	}
	return w.last
}

// edit replaces pred's relation in db: up to three adjacent tuples leave
// from a random place (front, middle or end), and up to three new ones
// enter at random places.
func (w *derivedWalk) edit(db *DB, pred string, arity int) *DB {
	var tuples []Tuple
	if r := db.Lookup(pred); r != nil {
		tuples = append(tuples, r.Tuples()...)
	}
	if len(tuples) > 0 && w.rng.Intn(3) > 0 {
		k := 1 + w.rng.Intn(min(3, len(tuples)))
		at := w.rng.Intn(len(tuples) - k + 1)
		tuples = append(tuples[:at], tuples[at+k:]...)
	}
	if w.rng.Intn(4) > 0 {
		for n := 1 + w.rng.Intn(3); n > 0; n-- {
			t := make(Tuple, arity)
			for j := range t {
				t[j] = w.constant()
			}
			if pred == "label" {
				t[1] = ast.S(fmt.Sprintf("n%d", w.rng.Intn(5)))
			}
			if slices.ContainsFunc(tuples, func(u Tuple) bool { return reflect.DeepEqual(u, t) }) {
				continue
			}
			at := w.rng.Intn(len(tuples) + 1)
			tuples = append(tuples[:at], append([]Tuple{t}, tuples[at:]...)...)
		}
	}
	return db.Replace(pred, tuples)
}

// expectInterned counts the tuples of db a base derived from one built
// over before (pred → its relation then, with the tuples it held) must
// intern: all of a new or re-aritied relation's, none of a relation still
// the same at the same length, and otherwise those whose backing array
// no tuple of before held.
func expectInterned(db *DB, before map[string]*Relation, beforeN map[string]int) int {
	n := 0
	for _, pred := range db.Preds() {
		rel, old := db.Lookup(pred), before[pred]
		switch {
		case rel == old && rel.Len() == beforeN[pred]:
		case old == nil || old.Arity != rel.Arity:
			n += rel.Len()
		default:
			held := map[*ast.Term]bool{}
			for _, t := range old.Tuples()[:beforeN[pred]] {
				held[&t[0]] = true
			}
			for _, t := range rel.Tuples() {
				if !held[&t[0]] {
					n++
				}
			}
		}
	}
	return n
}

// distinctNew counts the constants of db that in does not hold.
func distinctNew(db *DB, in *interner) int {
	seen := map[ast.Term]bool{}
	for _, pred := range db.Preds() {
		for _, t := range db.Lookup(pred).Tuples() {
			for _, v := range t {
				if _, ok := in.ids[v]; !ok {
					seen[v] = true
				}
			}
		}
	}
	return len(seen)
}

// TestDerivedBaseDifferential runs seeded random update sequences over a
// live base — single and batch adds and retracts at the front, middle and
// end of a relation, adjacent deletions, new numbers and strings, -0
// entering as 0, a relation emptied and re-created at another arity, an
// in-place AddFact on the snapshot itself, two successors derived from one
// predecessor, and relations no update touches — and checks after every
// step that a derived base answers exactly like a from-scratch one
// (answers in order, Stats, provenance), that untouched relations keep
// their irel, that the interner is shared exactly when no constant is
// new, and that EDBRowsInterned counts the tuples not carried over.
//
// It kills, among others, these mutations of base.go: copying a row by
// position instead of by backing array (an insertion at the front shifts
// every row), reusing an irel whose length changed (the in-place AddFact)
// and extending the shared interner in place (the sibling successor, and
// the predecessor queried for the successor's new constant, then resolve
// an id to the wrong term).
func TestDerivedBaseDifferential(t *testing.T) {
	seen := map[string]int{} // the cases the walks reached
	for seed := int64(1); seed <= 3; seed++ {
		w := &derivedWalk{rng: rand.New(rand.NewSource(seed)), last: ast.N(1)}
		db := NewDB()
		var edges, labels, marks, keeps []Tuple
		for i := 1; i <= 24; i++ {
			edges = append(edges, Tuple{ast.N(float64(i)), ast.N(float64(i + 1 + i%3))})
			if i%4 == 0 {
				labels = append(labels, Tuple{ast.N(float64(i)), ast.S(fmt.Sprintf("n%d", i%5))})
			}
			if i%7 == 0 {
				marks = append(marks, Tuple{ast.N(float64(i))})
			}
			keeps = append(keeps, Tuple{ast.N(float64(i))})
		}
		db = db.Replace("edge", edges).Replace("label", labels).Replace("mark", marks).
			Replace("keep", keeps).Replace("flip", []Tuple{{ast.N(3)}, {ast.N(9)}})
		requireSameAsClone(t, fmt.Sprintf("seed %d initial", seed), derivedPrograms["named"], db)

		for step := 0; step < 30; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			prev, prevBase := db, db.base
			before, beforeN := map[string]*Relation{}, map[string]int{}
			for _, pred := range prev.Preds() {
				before[pred], beforeN[pred] = prev.Lookup(pred), prev.Lookup(pred).Len()
			}
			var touched []string
			var sibling *DB
			switch k := w.rng.Intn(12); {
			case step == 2: // 0 enters as -0
				db = db.Replace("edge", append([]Tuple{{ast.N(math.Copysign(0, -1)), ast.N(1)}}, db.Lookup("edge").Tuples()...))
				touched = []string{"edge"}
			case k == 0: // in place: the snapshot's own base goes stale
				db.AddFact(ast.NewAtom("edge", ast.N(1), w.constant()))
				touched = []string{"edge"}
				seen["in place"]++
			case k == 1: // flip leaves, or comes back at the other arity
				if r := db.Lookup("flip"); r != nil {
					db, touched = db.Replace("flip", nil), []string{"flip"}
				} else {
					arity := 1 + w.rng.Intn(2)
					seen[fmt.Sprintf("flip/%d", arity)]++
					db = db.Replace("flip", []Tuple{Tuple{ast.N(5), ast.N(2)}[:arity], Tuple{ast.N(7), ast.N(8)}[:arity]})
					touched = []string{"flip"}
				}
			case k == 2: // two successors of prev, each with a new constant of its own
				edges := slices.Clip(prev.Lookup("edge").Tuples())
				sibling = prev.Replace("edge", append(edges, Tuple{ast.N(1), ast.N(float64(5000 + step))}))
				requireSameAsClone(t, label+" sibling", pointProgram(ast.N(1)), sibling)
				db, touched = db.Replace("edge", append(edges, Tuple{ast.N(1), ast.N(float64(6000 + step))})), []string{"edge"}
				seen["sibling"]++
				fallthrough
			default:
				for _, r := range []struct {
					pred  string
					arity int
				}{{"edge", 2}, {"label", 2}, {"mark", 1}} {
					if w.rng.Intn(2) == 0 {
						db, touched = w.edit(db, r.pred, r.arity), append(touched, r.pred)
					}
				}
			}
			fresh := distinctNew(db, prevBase.in)
			rebuilt := len(prevBase.in.terms)+fresh > maxGrowth*prevBase.full+growthSlack
			want := expectInterned(db, before, beforeN)
			if rebuilt {
				want = 0
				for _, pred := range db.Preds() {
					want += db.Count(pred)
				}
			}

			prog := derivedPrograms["named"]
			if r := db.Lookup("flip"); r != nil && w.rng.Intn(2) == 0 {
				prog = derivedPrograms[fmt.Sprintf("flip%d", r.Arity)]
			}
			if got := requireSameAsClone(t, label, prog, db); got != int64(want) {
				t.Fatalf("%s: interned %d tuples, want %d (rebuilt=%v)", label, got, want, rebuilt)
			}
			base := db.base
			seen[fmt.Sprintf("rebuilt=%v new=%v", rebuilt, fresh > 0)]++
			switch {
			case rebuilt:
				if base.full != len(base.in.terms) {
					t.Fatalf("%s: a from-scratch build records %d terms of %d", label, base.full, len(base.in.terms))
				}
			case fresh == 0 && base.in != prevBase.in:
				t.Fatalf("%s: no constant is new, but the interner was copied", label)
			case fresh > 0 && (base.in == prevBase.in || len(base.in.terms) != len(prevBase.in.terms)+fresh):
				t.Fatalf("%s: %d new constants, interner shared=%v with %d terms after %d",
					label, fresh, base.in == prevBase.in, len(base.in.terms), len(prevBase.in.terms))
			}
			if !rebuilt {
				for _, pred := range db.Preds() {
					if !slices.Contains(touched, pred) && prev != db && base.rels[pred] != prevBase.rels[pred] {
						t.Fatalf("%s: untouched %s got a new irel", label, pred)
					}
				}
			}

			// The newest constant, asked of the predecessor (which never held
			// it) and of the successor (which may); the sibling asked again
			// now that its twin has its base too.
			if prev != db {
				requireSameAsClone(t, label+" predecessor", pointProgram(w.last), prev)
			}
			requireSameAsClone(t, label+" point", pointProgram(w.last), db)
			if sibling != nil {
				requireSameAsClone(t, label+" sibling again", pointProgram(ast.N(1)), sibling)
			}
		}
	}
	for _, c := range []string{"in place", "flip/1", "flip/2", "sibling", "rebuilt=false new=false", "rebuilt=false new=true"} {
		if seen[c] == 0 {
			t.Errorf("no walk reached the case %q: %v", c, seen)
		}
	}
}

// TestInternerGrowthBound churns fresh constants — attach leaf k, detach
// it, for k = 1..400, querying after each step — so the derived
// interner keeps every departed leaf. It must never hold more than
// maxGrowth times the terms of the last from-scratch build plus
// growthSlack, and must rebuild from scratch exactly when the next new
// constant would cross that bound, which resets it.
func TestInternerGrowthBound(t *testing.T) {
	p := pointProgram(ast.N(1))
	var chain []Tuple
	for i := 0; i < 100; i++ {
		chain = append(chain, Tuple{ast.N(float64(i)), ast.N(float64(i + 1))})
	}
	db := NewDB().Replace("edge", chain)
	query := func() *edbBase {
		t.Helper()
		if _, _, err := QueryCtx(context.Background(), p, db, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		return db.base
	}
	base, rebuilds := query(), 0
	for k := 1; k <= 400; k++ {
		leaf := Tuple{ast.N(50), ast.N(float64(10000 + k))}
		for _, tuples := range [][]Tuple{append(slices.Clip(chain), leaf), chain} {
			prev := base
			db = db.Replace("edge", tuples)
			base = query()
			crossed := len(tuples) > len(chain) && len(prev.in.terms)+1 > maxGrowth*prev.full+growthSlack
			switch {
			case crossed && (base.full != len(tuples)+1 || len(base.in.terms) != base.full):
				t.Fatalf("leaf %d: at %d terms over a build of %d, the interner holds %d (full %d), want a from-scratch build of %d",
					k, len(prev.in.terms), prev.full, len(base.in.terms), base.full, len(tuples)+1)
			case !crossed && base.full != prev.full:
				t.Fatalf("leaf %d: rebuilt from scratch at %d terms, within the bound of a build of %d", k, len(prev.in.terms), prev.full)
			case len(base.in.terms) > maxGrowth*base.full+growthSlack:
				t.Fatalf("leaf %d: %d terms, over the bound of a build of %d", k, len(base.in.terms), base.full)
			}
			if crossed {
				rebuilds++
			}
		}
	}
	if rebuilds < 2 {
		t.Fatalf("%d from-scratch rebuilds over 400 new constants, want the bound to be reached more than once", rebuilds)
	}
}

// TestDerivedBasesUnderConcurrentReaders: while a writer publishes 50
// successors of a snapshot — each with a leaf of its own, a new
// constant, and without the one before — readers keep querying the
// first snapshot and reading a Result held from it, and other readers
// query whatever is newest, deriving those snapshots' bases from bases
// still being read. Every answer is checked; run under -race.
func TestDerivedBasesUnderConcurrentReaders(t *testing.T) {
	ctx, p := context.Background(), pointProgram(ast.N(1))
	var chain []Tuple
	for i := 0; i < 30; i++ {
		chain = append(chain, Tuple{ast.N(float64(i)), ast.N(float64(i + 1))})
	}
	first := NewDB().Replace("edge", chain)
	held, _, err := QueryResultCtx(ctx, p, first, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := held.Tuples()
	type snapshot struct {
		db *DB
		k  int
	}
	var latest atomic.Pointer[snapshot]
	var queried atomic.Int64 // the k of a snapshot a reader has evaluated
	latest.Store(&snapshot{db: first})
	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(check func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := check(); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		reader(func() error {
			got, _, err := QueryCtx(ctx, p, first, DefaultOptions())
			if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(held.Tuples(), want) {
				return fmt.Errorf("the first snapshot answers %v (%v), its held result %v; want %v", got, err, held.Tuples(), want)
			}
			return nil
		})
		reader(func() error {
			s := latest.Load()
			got, _, err := QueryCtx(ctx, p, s.db, DefaultOptions())
			if err != nil {
				return err
			}
			if fresh, _, _ := QueryCtx(ctx, p, s.db.Clone(), DefaultOptions()); !reflect.DeepEqual(got, fresh) {
				return fmt.Errorf("snapshot %d answers %v, its clone %v", s.k, got, fresh)
			}
			queried.Store(int64(s.k))
			return nil
		})
	}
	for k := 1; k <= 50; k++ {
		leaf := Tuple{ast.N(15), ast.N(float64(1000 + k))}
		latest.Store(&snapshot{db: latest.Load().db.Replace("edge", append(slices.Clip(chain), leaf)), k: k})
		for queried.Load() < int64(k) && !t.Failed() {
			runtime.Gosched() // let a reader derive this snapshot's base first
		}
	}
	close(done)
	wg.Wait()
}

// BenchmarkBaseAfterUpdate times building the interned base of a
// 2,200-fact dataset — 40 chains of 50 edges and 200 unary marks — from
// scratch, and deriving it from the predecessor's after a one-fact
// update: a retraction, an addition over known constants, and an
// addition that brings a new constant. interned/op is EDBRowsInterned.
func BenchmarkBaseAfterUpdate(b *testing.B) {
	var edges, marks []Tuple
	for c := 0; c < 40; c++ {
		for i := 0; i < 50; i++ {
			edges = append(edges, Tuple{ast.N(float64(c*100 + i)), ast.N(float64(c*100 + i + 1))})
		}
		for _, i := range []int{0, 10, 40, 45, 50} {
			marks = append(marks, Tuple{ast.N(float64(c*100 + i))})
		}
	}
	db := NewDB().Replace("edge", edges).Replace("mark", marks)
	db.interned()
	at := len(edges) / 2
	insert := func(t Tuple) []Tuple {
		return append(append(slices.Clip(edges[:at]), t), edges[at:]...)
	}
	run := func(name string, next *DB, prev *edbBase) {
		b.Run(name, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				rows = buildBase(next, prev).rows
			}
			b.ReportMetric(float64(rows), "interned/op")
		})
	}
	run("scratch", db, nil)
	run("derived-retract", db.Replace("edge", append(slices.Clip(edges[:at]), edges[at+1:]...)), db.base)
	run("derived-add-known", db.Replace("edge", insert(Tuple{ast.N(2000), ast.N(2002)})), db.base)
	run("derived-add-new", db.Replace("edge", insert(Tuple{ast.N(2000), ast.N(2060)})), db.base)
}
