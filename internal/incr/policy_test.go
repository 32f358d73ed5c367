package incr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

// View maintenance must not depend on the join orders its delta passes
// run in: a view keeps the orders chosen for the EDB it was materialized
// over (eval.DeltaProgram.OrderJoins) while the EDB's lengths move under
// it, so the same update can meet different orders in two views. DRed's
// passes are order-insensitive (they build sets), and these tests hold
// them to it.

// TestIncrPolicyDifferentialApply maintains two views through an
// identical randomized add/retract sequence over each program shape: one
// as MaterializeCtx ordered it, one with every tie between two EDB subgoals
// broken the other way (the longer relation first), and asserts that
// answers, Changes, every IDB predicate's facts, and provenance
// explanations never diverge. The first view is also checked against from-scratch
// evaluation, anchoring the pair to ground truth.
func TestIncrPolicyDifferentialApply(t *testing.T) {
	for _, pc := range incrPrograms {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			p := parser.MustParseProgram(pc.src)
			universe := pc.universe()
			rng := rand.New(rand.NewSource(41))
			fs := factSet{}
			var seed []ast.Atom
			for _, a := range universe {
				if rng.Intn(3) == 0 {
					seed = append(seed, a)
				}
			}
			fs.apply(seed, nil)

			views := make([]*View, 2)
			for i := range views {
				v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
				if err != nil {
					t.Fatalf("MaterializeCtx: %v", err)
				}
				views[i] = v
			}
			views[1].dp.OrderJoins(func(pred string) int { return -views[1].rels[pred].Len() })
			requireConsistent(t, "init", views[0], p, fs)

			for step := 0; step < 6; step++ {
				label := fmt.Sprintf("step %d", step)
				var adds, dels []ast.Atom
				for n := rng.Intn(4); n > 0; n-- {
					adds = append(adds, universe[rng.Intn(len(universe))])
				}
				for n := rng.Intn(4); n > 0; n-- {
					dels = append(dels, universe[rng.Intn(len(universe))])
				}
				fs.apply(adds, dels)

				changes := make([]map[string][]string, len(views))
				for i, v := range views {
					ch, err := v.Apply(adds, dels)
					if err != nil {
						t.Fatalf("%s: Apply (view %d): %v", label, i, err)
					}
					changes[i] = map[string][]string{
						"added":   renderTuples(p.Query, ch.Added),
						"removed": renderTuples(p.Query, ch.Removed),
					}
				}
				requireConsistent(t, label, views[0], p, fs)
				base, other := views[0], views[1]
				if !reflect.DeepEqual(changes[1], changes[0]) {
					t.Fatalf("%s: Changes diverged:\n%v\n%v", label, changes[0], changes[1])
				}
				baseAnswers := answersOf(t, base)
				if got := answersOf(t, other); !reflect.DeepEqual(got, baseAnswers) {
					t.Fatalf("%s: answers diverged:\n%v\n%v", label, baseAnswers, got)
				}
				for pred := range p.IDB() {
					if got, want := viewFacts(t, other, pred), viewFacts(t, base, pred); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %s diverged:\n%v\n%v", label, pred, want, got)
					}
				}
				for j := 0; j < len(baseAnswers) && j < 2; j++ {
					// Explain recomputes provenance; keep it cheap.
					fact := ast.NewAtom(p.Query, mustAnswerTuple(t, base, j)...)
					want, err := base.Explain(fact)
					if err != nil {
						t.Fatalf("%s: Explain(%s): %v", label, fact, err)
					}
					got, err := other.Explain(fact)
					if err != nil {
						t.Fatalf("%s: Explain(%s), ties reversed: %v", label, fact, err)
					}
					if got.String() != want.String() {
						t.Fatalf("%s: provenance of %s diverged:\n%s\n%s", label, fact, want, got)
					}
				}
			}
		})
	}
}

// mustAnswerTuple returns the j-th answer tuple in sorted render order,
// so every view explains the same facts.
func mustAnswerTuple(t *testing.T, v *View, j int) eval.Tuple {
	t.Helper()
	ts, err := v.Answers()
	if err != nil {
		t.Fatal(err)
	}
	type kt struct {
		k string
		t eval.Tuple
	}
	all := make([]kt, len(ts))
	for i, tup := range ts {
		all[i] = kt{ast.NewAtom(v.Program().Query, tup...).String(), tup}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].k < all[b].k })
	return all[j].t
}

// TestIncrLongSequenceDifferential is the gate on retraction by
// tombstone (run under -race by `make incr-smoke`): sequences long
// enough to cross compaction several times, checked after every batch
// against a fresh MaterializeCtx of the same facts — answers, Changes,
// every IDB predicate's facts, Explain trees and every relation's live
// length —
// which is what a view whose retractions rebuilt its relations would
// show. The batches are random with the cases that
// marking rows dead in place can get wrong dealt in on a schedule: a
// fact retracted and re-added in one batch, re-added in the next batch,
// re-added after the relation that held it was compacted, and a fact cut
// and restored a batch later (in the recursive programs that is DRed
// over-deleting what hangs off it, re-deriving what another derivation
// still supports, and putting the rest back).
func TestIncrLongSequenceDifferential(t *testing.T) {
	const batches = 2000
	// The closure of incrPrograms again, over a domain where a cut edge
	// takes dozens of path tuples with it, in its place.
	programs := append([]incrProgram{{
		name: "closure-dom-8",
		src: `path(X, Y) :- edge(X, Y).
		      path(X, Y) :- path(X, Z), edge(Z, Y).
		      ?- path.`,
		edb: map[string]int{"edge": 2},
		dom: 8,
	}, {
		// Updates of blocked take the full-rebuild path, whose fixpoint
		// starts over by scanning EDB relations that hold dead rows.
		name: "negated-guard",
		src: `safe(X, Y) :- edge(X, Y), !blocked(Y).
		      reach(X, Y) :- safe(X, Y).
		      reach(X, Y) :- reach(X, Z), safe(Z, Y).
		      ?- reach.`,
		edb: map[string]int{"edge": 2, "blocked": 1},
		dom: 5,
	}}, incrPrograms[1:]...)
	for _, pc := range programs {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			p := parser.MustParseProgram(pc.src)
			universe := pc.universe()
			rng := rand.New(rand.NewSource(97))
			fs := factSet{}
			var seed []ast.Atom
			for _, a := range universe {
				if rng.Intn(4) == 0 {
					seed = append(seed, a)
				}
			}
			fs.apply(seed, nil)
			v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
			if err != nil {
				t.Fatalf("MaterializeCtx: %v", err)
			}
			physical := func() map[string]int {
				out := map[string]int{}
				for pred, rel := range v.rels {
					out[pred] = rel.View().Hi
				}
				return out
			}
			// order lists every relation's live rows as they lie. A row
			// that stays through a batch is never moved by it — not by a
			// removal next to it, not by coming back in place, not by a
			// compaction — so what two consecutive listings share, they
			// share in one order.
			order := func() map[string][]string {
				out := map[string][]string{}
				for pred, rel := range v.rels {
					rel.View().Each(func(row []uint32) { out[pred] = append(out[pred], rowKey(row)) })
				}
				return out
			}
			common := func(rows []string, other []string) []string {
				in := map[string]bool{}
				for _, k := range other {
					in[k] = true
				}
				var out []string
				for _, k := range rows {
					if in[k] {
						out = append(out, k)
					}
				}
				return out
			}
			var (
				lastDels, cut, parked []ast.Atom
				compactions           int
				rows                  = physical()
				lay                   = order()
				rebuilds              int64
			)
			for step := 0; step < batches; step++ {
				label := fmt.Sprintf("batch %d", step)
				var adds, dels []ast.Atom
				for n := rng.Intn(4); n > 0; n-- {
					adds = append(adds, universe[rng.Intn(len(universe))])
				}
				for n := rng.Intn(4); n > 0; n-- {
					dels = append(dels, universe[rng.Intn(len(universe))])
				}
				switch step % 5 {
				case 1: // retracted and re-added in one batch
					if len(dels) > 0 {
						adds = append(adds, dels[0])
					}
				case 2: // re-added the batch after
					adds = append(adds, lastDels...)
				case 3: // cut a fact that is there
					if len(fs) > 0 {
						keys := make([]string, 0, len(fs))
						for k := range fs {
							keys = append(keys, k)
						}
						sort.Strings(keys)
						cut = []ast.Atom{fs[keys[rng.Intn(len(keys))]]}
						dels = append(dels, cut...)
					}
				case 4: // and restore it
					adds, cut = append(adds, cut...), nil
				}
				// Re-added once its relation has been compacted under it.
				if n := physical(); len(parked) > 0 && n[parked[0].Pred] < rows[parked[0].Pred] {
					adds, parked = append(adds, parked...), nil
				}
				if parked == nil && len(dels) > 0 {
					parked = dels[:1]
				}
				lastDels = dels
				rows = physical()

				before := answersOf(t, v)
				fs.apply(adds, dels)
				fresh, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
				if err != nil {
					t.Fatalf("%s: fresh MaterializeCtx: %v", label, err)
				}
				after := answersOf(t, fresh)
				wantAdded, wantRemoved := diffStrings(before, after)
				// An EDB predicate that lost its last fact keeps an empty
				// relation in the view and has none in a fresh one.
				lengths := func(v *View) map[string]int {
					out := map[string]int{}
					for pred, rel := range v.rels {
						if rel.Len() > 0 || v.idbPr[pred] {
							out[pred] = rel.Len()
						}
					}
					return out
				}
				ch, err := v.Apply(adds, dels)
				if err != nil {
					t.Fatalf("%s: Apply: %v", label, err)
				}
				if got := answersOf(t, v); !reflect.DeepEqual(got, after) {
					t.Fatalf("%s: answers\nview  %v\nfresh %v", label, got, after)
				}
				if got := renderTuples(p.Query, ch.Added); !equalSets(got, wantAdded) {
					t.Fatalf("%s: Changes.Added %v, want %v", label, got, wantAdded)
				}
				if got := renderTuples(p.Query, ch.Removed); !equalSets(got, wantRemoved) {
					t.Fatalf("%s: Changes.Removed %v, want %v", label, got, wantRemoved)
				}
				for pred := range p.IDB() {
					if got, want := viewFacts(t, v, pred), viewFacts(t, fresh, pred); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %s\nview  %v\nfresh %v", label, pred, got, want)
					}
				}
				for j := 0; j < len(after) && j < 2; j++ {
					fact := ast.NewAtom(p.Query, mustAnswerTuple(t, fresh, j)...)
					dv, err := v.Explain(fact)
					if err != nil {
						t.Fatalf("%s: Explain(%s): %v", label, fact, err)
					}
					df, err := fresh.Explain(fact)
					if err != nil {
						t.Fatalf("%s: fresh Explain(%s): %v", label, fact, err)
					}
					if dv.String() != df.String() {
						t.Fatalf("%s: provenance of %s\nview  %s\nfresh %s", label, fact, dv, df)
					}
				}
				if got, want := lengths(v), lengths(fresh); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: live lengths\nview  %v\nfresh %v", label, got, want)
				}
				for pred, rel := range v.rels {
					if hi, live := rel.View().Hi, rel.Len(); hi > 2*live+8 {
						t.Fatalf("%s: %s holds %d rows for %d live ones", label, pred, hi, live)
					}
				}
				for pred, n := range physical() {
					if n < rows[pred] {
						compactions++
					}
				}
				now := order()
				rebuilt := v.Stats().FullRebuilds > rebuilds
				rebuilds = v.Stats().FullRebuilds
				for pred, was := range lay {
					if rebuilt && v.idbPr[pred] {
						continue // a full rebuild derives the IDB afresh
					}
					if got, want := common(now[pred], was), common(was, now[pred]); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: the batch moved rows of %s that it left in place\nbefore %q\nafter  %q", label, pred, want, got)
					}
				}
				lay = now
			}
			if compactions < 3 {
				t.Fatalf("%d compactions in %d batches: the sequence does not exercise them", compactions, batches)
			}
		})
	}
}
