package incr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/refeval"
)

// --- helpers ---------------------------------------------------------------

// factSet is the reference EDB: canonical key → atom. Batches apply
// with delete-then-insert semantics, mirroring View.Apply.
type factSet map[string]ast.Atom

func (fs factSet) apply(adds, dels []ast.Atom) {
	for _, a := range dels {
		delete(fs, a.Key())
	}
	for _, a := range adds {
		fs[a.Key()] = a
	}
}

func (fs factSet) db() *eval.DB {
	db := eval.NewDB()
	keys := make([]string, 0, len(fs))
	for k := range fs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		db.AddFact(fs[k])
	}
	return db
}

func renderTuples(pred string, ts []eval.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = ast.NewAtom(pred, t...).String()
	}
	sort.Strings(out)
	return out
}

func viewFacts(t *testing.T, v *View, pred string) []string {
	t.Helper()
	ts, err := v.FactsOf(pred)
	if err != nil {
		t.Fatalf("FactsOf(%s): %v", pred, err)
	}
	return renderTuples(pred, ts)
}

// requireConsistent checks the view against from-scratch evaluation of
// the reference EDB, by the reference evaluator and by the engine at
// workers {1,4}: every IDB relation must be identical.
func requireConsistent(t *testing.T, label string, v *View, p *ast.Program, fs factSet) {
	t.Helper()
	facts := make([]ast.Atom, 0, len(fs))
	for _, a := range fs {
		facts = append(facts, a)
	}
	for pred, want := range refeval.Eval(p, facts) {
		if got := viewFacts(t, v, pred); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s diverged from the reference:\nview %v\nfull %v", label, pred, got, want)
		}
	}
	db := fs.db()
	idb, _, err := eval.EvalCtx(context.Background(), p, db, eval.Options{})
	if err != nil {
		t.Fatalf("%s: eval: %v", label, err)
	}
	for pred := range p.IDB() {
		want := idb.SortedFacts(pred)
		got := viewFacts(t, v, pred)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s diverged:\nview %v\nfull %v", label, pred, got, want)
		}
	}
}

// requireFreshEqual checks the view against a fresh MaterializeCtx over
// the same EDB: every IDB predicate's facts and the provenance of the
// first query answers must match.
func requireFreshEqual(t *testing.T, label string, v *View, p *ast.Program, fs factSet) {
	t.Helper()
	fresh, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
	if err != nil {
		t.Fatalf("%s: fresh MaterializeCtx: %v", label, err)
	}
	for pred := range p.IDB() {
		if got, want := viewFacts(t, v, pred), viewFacts(t, fresh, pred); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s diverged from a fresh view:\nview  %v\nfresh %v", label, pred, got, want)
		}
	}
	answers, err := fresh.Answers()
	if err != nil {
		t.Fatal(err)
	}
	for i, tup := range answers {
		if i >= 3 {
			break // provenance recomputation is the expensive part
		}
		fact := ast.NewAtom(p.Query, tup...)
		dv, err := v.Explain(fact)
		if err != nil {
			t.Fatalf("%s: view Explain(%s): %v", label, fact, err)
		}
		df, err := fresh.Explain(fact)
		if err != nil {
			t.Fatalf("%s: fresh Explain(%s): %v", label, fact, err)
		}
		if dv.String() != df.String() {
			t.Fatalf("%s: provenance of %s diverged:\nview  %s\nfresh %s", label, fact, dv, df)
		}
	}
}

func answersOf(t *testing.T, v *View) []string {
	t.Helper()
	ts, err := v.Answers()
	if err != nil {
		t.Fatalf("Answers: %v", err)
	}
	return renderTuples(v.Program().Query, ts)
}

// equalSets compares two string slices as sets-with-order, treating
// nil and empty as equal (diffStrings returns nil when nothing
// changed; renderTuples returns empty).
func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func diffStrings(old, new []string) (added, removed []string) {
	oldSet := map[string]bool{}
	for _, s := range old {
		oldSet[s] = true
	}
	newSet := map[string]bool{}
	for _, s := range new {
		newSet[s] = true
		if !oldSet[s] {
			added = append(added, s)
		}
	}
	for _, s := range old {
		if !newSet[s] {
			removed = append(removed, s)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

// --- directed examples -----------------------------------------------------

// TestIncrTwoDerivations: a tuple with two derivations (two rules,
// shared support) survives losing one of them — overdeleted, then
// rederived through the other rule — and leaves on losing both, taking
// the answer it supports along; a fact deleted and re-added in one
// batch changes nothing. Every step is checked by answers and FactsOf,
// and by the derivability checks it costs: one per rule tried on each
// overdeleted tuple, in rule order, until one fires.
func TestIncrTwoDerivations(t *testing.T) {
	p := parser.MustParseProgram(`
		can(X) :- badge(X).
		can(X) :- keycode(X).
		enter(X) :- can(X), door(X).
		?- enter.`)
	fs := factSet{}
	fs.apply(parser.MustParseFacts(`badge(1). keycode(1). badge(2). door(1). door(2).`), nil)
	v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireConsistent(t, "init", v, p, fs)
	step := func(label string, adds, dels string, wantRemoved []string, wantChecks int64, wantCan, wantEnter []string) {
		t.Helper()
		before := v.Stats()
		a, d := parser.MustParseFacts(adds), parser.MustParseFacts(dels)
		ch, err := v.Apply(a, d)
		if err != nil {
			t.Fatal(err)
		}
		fs.apply(a, d)
		requireConsistent(t, label, v, p, fs)
		if got := renderTuples("enter", ch.Removed); len(ch.Added) != 0 || !equalSets(got, wantRemoved) {
			t.Fatalf("%s: changes %+v, want only %v removed", label, ch, wantRemoved)
		}
		if got := v.Stats().RederiveChecks - before.RederiveChecks; got != wantChecks {
			t.Fatalf("%s: %d rederive checks, want %d", label, got, wantChecks)
		}
		if got := viewFacts(t, v, "can"); !equalSets(got, wantCan) {
			t.Fatalf("%s: can = %v, want %v", label, got, wantCan)
		}
		if got := answersOf(t, v); !equalSets(got, wantEnter) {
			t.Fatalf("%s: answers = %v, want %v", label, got, wantEnter)
		}
	}
	// Losing the badge overdeletes can(1); the badge rule fails and the
	// keycode rule puts it back, so enter never sees a delta.
	step("del badge(1)", ``, `badge(1).`, nil, 2,
		[]string{"can(1)", "can(2)"}, []string{"enter(1)", "enter(2)"})
	// Losing the keycode too: both rules fail on can(1), and enter(1),
	// overdeleted through it, fails its one rule.
	step("del keycode(1)", ``, `keycode(1).`, []string{"enter(1)"}, 3,
		[]string{"can(2)"}, []string{"enter(2)"})
	// Delete-then-insert in one batch: the add wins and nothing moves.
	step("del+add badge(2)", `badge(2).`, `badge(2).`, nil, 0,
		[]string{"can(2)"}, []string{"enter(2)"})
	requireFreshEqual(t, "final", v, p, fs)
}

// TestIncrDRedKillAndRederive is the acceptance scenario spelled out:
// retract a fact that kills a recursive tuple's only used derivation
// while an alternative path keeps it alive (rederive), then retract
// the alternative (true deletion), then re-add (re-derivation).
func TestIncrDRedKillAndRederive(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path.`)
	fs := factSet{}
	fs.apply(parser.MustParseFacts(`edge(1, 2). edge(2, 3). edge(1, 4). edge(4, 3). edge(3, 5).`), nil)
	v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireConsistent(t, "init", v, p, fs)

	step := func(label, addSrc, delSrc string, wantAdded, wantRemoved []string) {
		t.Helper()
		adds, dels := parser.MustParseFacts(addSrc), parser.MustParseFacts(delSrc)
		before := answersOf(t, v)
		ch, err := v.Apply(adds, dels)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fs.apply(adds, dels)
		requireConsistent(t, label, v, p, fs)
		after := answersOf(t, v)
		added, removed := diffStrings(before, after)
		if !equalSets(added, renderTuples("path", ch.Added)) ||
			!equalSets(removed, renderTuples("path", ch.Removed)) {
			t.Fatalf("%s: Changes disagree with actual diff:\nchanges +%v -%v\ndiff    +%v -%v",
				label, renderTuples("path", ch.Added), renderTuples("path", ch.Removed), added, removed)
		}
		if !equalSets(added, wantAdded) {
			t.Fatalf("%s: added %v, want %v", label, added, wantAdded)
		}
		if !equalSets(removed, wantRemoved) {
			t.Fatalf("%s: removed %v, want %v", label, removed, wantRemoved)
		}
	}

	// path(1,3), path(1,5) survive via 1→4→3: overdeleted, rederived.
	step("kill-and-rederive", ``, `edge(1, 2).`, []string{}, []string{"path(1, 2)"})
	// Now the alternative dies too: the whole 1→… cone goes.
	step("true-delete", ``, `edge(1, 4).`, []string{}, []string{"path(1, 3)", "path(1, 4)", "path(1, 5)"})
	// Re-adding re-derives the recursive tuples.
	step("re-derive", `edge(1, 2).`, ``, []string{"path(1, 2)", "path(1, 3)", "path(1, 5)"}, []string{})
	// Delete and re-add the same fact in one batch: net no-op.
	step("delete-then-insert", `edge(2, 3).`, `edge(2, 3).`, []string{}, []string{})
	requireFreshEqual(t, "final", v, p, fs)
}

// TestIncrNegationFallback: updates touching a negated predicate take
// the full-rebuild path and still converge to the right answers.
func TestIncrNegationFallback(t *testing.T) {
	p := parser.MustParseProgram(`
		reach(X) :- node(X), !blocked(X).
		?- reach.`)
	fs := factSet{}
	fs.apply(parser.MustParseFacts(`node(1). node(2). blocked(2).`), nil)
	v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	adds := parser.MustParseFacts(`blocked(1).`)
	if _, err := v.Apply(adds, nil); err != nil {
		t.Fatal(err)
	}
	fs.apply(adds, nil)
	requireConsistent(t, "block 1", v, p, fs)
	dels := parser.MustParseFacts(`blocked(2).`)
	if _, err := v.Apply(nil, dels); err != nil {
		t.Fatal(err)
	}
	fs.apply(nil, dels)
	requireConsistent(t, "unblock 2", v, p, fs)
	if st := v.Stats(); st.FullRebuilds != 2 {
		t.Fatalf("FullRebuilds = %d, want 2", st.FullRebuilds)
	}
}

// TestIncrApplyCancellationRepairs: a cancelled Apply reports the
// context error and leaves the view broken; the next read repairs it
// to exactly the post-update state.
func TestIncrApplyCancellationRepairs(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path.`)
	fs := factSet{}
	var facts []ast.Atom
	for i := 0; i < 40; i++ {
		facts = append(facts, ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	fs.apply(facts, nil)
	v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	adds := parser.MustParseFacts(`edge(100, 0).`)
	if _, err := v.ApplyCtx(ctx, adds, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyCtx error = %v, want context.Canceled", err)
	}
	// The EDB delta was ingested; the repair must fold it in.
	fs.apply(adds, nil)
	requireConsistent(t, "after repair", v, p, fs)
	if st := v.Stats(); st.FullRebuilds == 0 {
		t.Fatal("expected a repairing full rebuild")
	}
}

// TestIncrBudget: the materialization budget propagates eval.ErrBudget.
func TestIncrBudget(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path.`)
	fs := factSet{}
	var facts []ast.Atom
	for i := 0; i < 20; i++ {
		facts = append(facts, ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	fs.apply(facts, nil)
	if _, err := MaterializeCtx(context.Background(), p, fs.db(), Options{MaxTuples: 5}); !errors.Is(err, eval.ErrBudget) {
		t.Fatalf("MaterializeCtx error = %v, want eval.ErrBudget", err)
	}
}

// TestIncrRejectsIDBUpdate: derived predicates cannot be mutated.
func TestIncrRejectsIDBUpdate(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		?- path.`)
	v, err := MaterializeCtx(context.Background(), p, eval.NewDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(parser.MustParseFacts(`path(1, 2).`), nil); err == nil {
		t.Fatal("want error updating a derived predicate")
	}
}

// --- randomized differential -----------------------------------------------

// incrProgram is one randomized-differential subject: a program plus
// the EDB predicates (with arities) updates draw from.
type incrProgram struct {
	name string
	src  string
	edb  map[string]int
	dom  int // constants range over [0, dom)
}

var incrPrograms = []incrProgram{
	{
		name: "transitive-closure",
		src: `path(X, Y) :- edge(X, Y).
		      path(X, Y) :- edge(X, Z), path(Z, Y).
		      ?- path.`,
		edb: map[string]int{"edge": 2},
		dom: 6,
	},
	{
		name: "layered-counting",
		src: `link(X, Y) :- edge(X, Y).
		      link(X, Y) :- edge(Y, X).
		      tri(X, Z) :- link(X, Y), link(Y, Z), X != Z.
		      out(X) :- tri(X, Y), good(Y).
		      near(X) :- link(X, Y), edge(Y, Z), good(Y).
		      ?- out.`,
		edb: map[string]int{"edge": 2, "good": 1},
		dom: 5,
	},
	{
		name: "mutual-recursion",
		src: `even(X) :- zero(X).
		      even(Y) :- odd(X), succ(X, Y).
		      odd(Y) :- even(X), succ(X, Y).
		      ?- even.`,
		edb: map[string]int{"zero": 1, "succ": 2},
		dom: 6,
	},
	{
		name: "guarded-recursion",
		src: `reach(X) :- start(X).
		      reach(Y) :- reach(X), edge(X, Y), Y < 4.
		      big(X) :- reach(X), bonus(X).
		      ?- big.`,
		edb: map[string]int{"start": 1, "edge": 2, "bonus": 1},
		dom: 6,
	},
}

func (pc incrProgram) universe() []ast.Atom {
	var out []ast.Atom
	preds := make([]string, 0, len(pc.edb))
	for pred := range pc.edb {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	for _, pred := range preds {
		switch pc.edb[pred] {
		case 1:
			for i := 0; i < pc.dom; i++ {
				out = append(out, ast.NewAtom(pred, ast.N(float64(i))))
			}
		case 2:
			for i := 0; i < pc.dom; i++ {
				for j := 0; j < pc.dom; j++ {
					out = append(out, ast.NewAtom(pred, ast.N(float64(i)), ast.N(float64(j))))
				}
			}
		}
	}
	return out
}

// TestIncrRandomizedDifferential is the main correctness gate (also
// run under -race by `make incr-smoke`): randomized add/retract
// sequences over several program shapes, checking after every batch
// that the view matches from-scratch evaluation by the reference
// evaluator and by the engine, that reported Changes equal the actual
// answer diff, and (periodically) that every IDB predicate's facts and
// provenance match a fresh MaterializeCtx.
func TestIncrRandomizedDifferential(t *testing.T) {
	for _, pc := range incrPrograms {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			p := parser.MustParseProgram(pc.src)
			universe := pc.universe()
			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(1 + trial)))
				fs := factSet{}
				var seed []ast.Atom
				for _, a := range universe {
					if rng.Intn(3) == 0 {
						seed = append(seed, a)
					}
				}
				fs.apply(seed, nil)
				v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				requireConsistent(t, fmt.Sprintf("trial %d init", trial), v, p, fs)
				for step := 0; step < 8; step++ {
					label := fmt.Sprintf("trial %d step %d", trial, step)
					var adds, dels []ast.Atom
					for n := rng.Intn(4); n > 0; n-- {
						adds = append(adds, universe[rng.Intn(len(universe))])
					}
					for n := rng.Intn(4); n > 0; n-- {
						dels = append(dels, universe[rng.Intn(len(universe))])
					}
					if rng.Intn(3) == 0 && len(adds) > 0 {
						dels = append(dels, adds[0]) // delete-then-insert overlap
					}
					before := answersOf(t, v)
					ch, err := v.Apply(adds, dels)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					fs.apply(adds, dels)
					requireConsistent(t, label, v, p, fs)
					after := answersOf(t, v)
					wantAdded, wantRemoved := diffStrings(before, after)
					if !equalSets(renderTuples(p.Query, ch.Added), wantAdded) {
						t.Fatalf("%s: Changes.Added %v, want %v", label, renderTuples(p.Query, ch.Added), wantAdded)
					}
					if !equalSets(renderTuples(p.Query, ch.Removed), wantRemoved) {
						t.Fatalf("%s: Changes.Removed %v, want %v", label, renderTuples(p.Query, ch.Removed), wantRemoved)
					}
					if step%3 == 2 {
						requireFreshEqual(t, label, v, p, fs)
					}
				}
				requireFreshEqual(t, fmt.Sprintf("trial %d final", trial), v, p, fs)
			}
		})
	}
}

// TestIncrStatsAccounting sanity-checks the cumulative counters.
func TestIncrStatsAccounting(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path.`)
	fs := factSet{}
	fs.apply(parser.MustParseFacts(`edge(1, 2). edge(2, 3).`), nil)
	v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.InitRounds == 0 || st.InitTuples != 3 || st.InitProbes == 0 {
		t.Fatalf("init stats look wrong: %+v", st)
	}
	if _, err := v.Apply(parser.MustParseFacts(`edge(3, 4).`), nil); err != nil {
		t.Fatal(err)
	}
	st = v.Stats()
	if st.Applies != 1 || st.DeltaProbes == 0 || st.TuplesAdded != 3 {
		t.Fatalf("apply stats look wrong: %+v", st)
	}
}
