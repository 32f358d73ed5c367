package incr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

// These tests cover the two incr-side obligations of the ordering-policy
// work: (1) the per-column distinct sketches that feed the cost model
// must stay correct across retractions, which in this layer means the
// rebuilt relations after a deleting Apply must carry the same
// statistics as a from-scratch materialization of the same EDB; and
// (2) view maintenance must produce identical answers, derivation
// counts, Changes, and provenance under every join-order policy —
// policies may only change the order work happens in, never what is
// derived or how often.

// sketchSnapshot renders every relation's row count and per-column
// distinct estimates into a comparable map.
func sketchSnapshot(v *View) map[string]string {
	out := map[string]string{}
	for pred, rel := range v.rels {
		s := fmt.Sprintf("n=%d", rel.Len())
		for j := 0; j < rel.Arity(); j++ {
			s += fmt.Sprintf(" d%d=%d", j, rel.DistinctEstimate(j))
		}
		out[pred] = s
	}
	return out
}

// TestIncrSketchMaintainedAcrossRetractions drives a view through
// add/delete batches (deletions force the counting layer to rebuild
// relations, which is where stale sketches would survive if statistics
// were not insert-complete) and checks that every relation's sketch
// matches a fresh Materialize over the same final EDB. Both views hold
// the same row sets, so exact counts and spill-mode estimates alike
// must agree bit-for-bit.
func TestIncrSketchMaintainedAcrossRetractions(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		tagged(X) :- path(X, Y), tag(Y).
		?- tagged.`)
	fs := factSet{}
	var seed []ast.Atom
	for i := 0; i < 12; i++ {
		seed = append(seed, ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	seed = append(seed, ast.NewAtom("tag", ast.N(5)), ast.NewAtom("tag", ast.N(9)))
	fs.apply(seed, nil)
	v, err := Materialize(p, fs.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 6; step++ {
		var adds, dels []ast.Atom
		for n := 3; n > 0; n-- {
			i := rng.Intn(14)
			adds = append(adds, ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(rng.Intn(14)))))
		}
		for n := 2; n > 0; n-- {
			i := rng.Intn(13)
			dels = append(dels, ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i+1))))
		}
		if _, err := v.Apply(adds, dels); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		fs.apply(adds, dels)

		fresh, err := Materialize(p, fs.db(), Options{})
		if err != nil {
			t.Fatalf("step %d: fresh Materialize: %v", step, err)
		}
		got, want := sketchSnapshot(v), sketchSnapshot(fresh)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: sketches diverged from fresh materialization:\nview  %v\nfresh %v", step, got, want)
		}
	}
}

// TestIncrSketchSpillAcrossRetraction repeats the check past the
// exact→spill threshold. Spilled estimates hash interned term IDs, and
// a maintained view interns terms in a different order than a fresh
// build (it saw the since-retracted rows too), so estimates are not
// bit-identical across views — only columns still in exact mode are.
// What must hold after retraction: exact-mode columns match a fresh
// build, and the spilled column estimates the surviving distinct count
// within linear counting's error bound, not the pre-retraction count.
func TestIncrSketchSpillAcrossRetraction(t *testing.T) {
	p := parser.MustParseProgram(`
		hit(X) :- wide(X, Y), probe(Y).
		?- hit.`)
	fs := factSet{}
	var seed []ast.Atom
	for i := 0; i < 600; i++ {
		seed = append(seed, ast.NewAtom("wide", ast.N(float64(i%7)), ast.N(float64(i))))
	}
	seed = append(seed, ast.NewAtom("probe", ast.N(3)))
	fs.apply(seed, nil)
	v, err := Materialize(p, fs.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dels []ast.Atom
	for i := 100; i < 400; i++ {
		dels = append(dels, ast.NewAtom("wide", ast.N(float64(i%7)), ast.N(float64(i))))
	}
	if _, err := v.Apply(nil, dels); err != nil {
		t.Fatal(err)
	}
	fs.apply(nil, dels)
	fresh, err := Materialize(p, fs.db(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide, fwide := v.rels["wide"], fresh.rels["wide"]
	if wide.Len() != 300 || fwide.Len() != 300 {
		t.Fatalf("wide has %d rows (fresh %d), want 300", wide.Len(), fwide.Len())
	}
	if got, want := wide.DistinctEstimate(0), fwide.DistinctEstimate(0); got != want {
		t.Fatalf("exact-mode column 0 diverged: view %d, fresh %d", got, want)
	}
	if d := wide.DistinctEstimate(1); d < 225 || d > 375 {
		t.Fatalf("wide column 1 distinct = %d, want within 25%% of 300 (pre-retraction count was 600)", d)
	}
}

// incrPolicies are the option sets the Apply differential runs under.
// The empty string exercises the zero-value (greedy) default path.
var incrPolicies = []eval.JoinOrderPolicy{"", eval.PolicyCost, eval.PolicyAdaptive}

// TestIncrPolicyDifferentialApply maintains one view per policy through
// an identical randomized add/retract sequence over each program shape
// and asserts that answers, Changes, derivation counts, and provenance
// explanations never diverge across policies. The greedy view is also
// checked against from-scratch evaluation, anchoring the whole set to
// ground truth.
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

			views := make([]*View, len(incrPolicies))
			for i, pol := range incrPolicies {
				v, err := Materialize(p, fs.db(), Options{Policy: pol})
				if err != nil {
					t.Fatalf("Materialize(policy=%q): %v", pol, err)
				}
				views[i] = v
			}
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
						t.Fatalf("%s: Apply(policy=%q): %v", label, incrPolicies[i], err)
					}
					changes[i] = map[string][]string{
						"added":   renderTuples(p.Query, ch.Added),
						"removed": renderTuples(p.Query, ch.Removed),
					}
				}
				requireConsistent(t, label, views[0], p, fs)
				base := views[0]
				baseAnswers := answersOf(t, base)
				for i := 1; i < len(views); i++ {
					pol := incrPolicies[i]
					if !reflect.DeepEqual(changes[i], changes[0]) {
						t.Fatalf("%s: Changes diverged under policy %q:\ngreedy %v\n%-6s %v",
							label, pol, changes[0], pol, changes[i])
					}
					if got := answersOf(t, views[i]); !reflect.DeepEqual(got, baseAnswers) {
						t.Fatalf("%s: answers diverged under policy %q:\ngreedy %v\n%-6s %v",
							label, pol, baseAnswers, pol, got)
					}
					for pred := range p.IDB() {
						got, want := views[i].DerivationCounts(pred), base.DerivationCounts(pred)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %s derivation counts diverged under policy %q:\ngreedy %v\n%-6s %v",
								label, pred, pol, want, pol, got)
						}
					}
					for j := 0; j < len(baseAnswers) && j < 2; j++ {
						// Explain recomputes provenance; keep it cheap.
						fact := ast.NewAtom(p.Query, mustAnswerTuple(t, base, j)...)
						dg, err := base.Explain(fact)
						if err != nil {
							t.Fatalf("%s: greedy Explain(%s): %v", label, fact, err)
						}
						dp, err := views[i].Explain(fact)
						if err != nil {
							t.Fatalf("%s: policy %q Explain(%s): %v", label, pol, fact, err)
						}
						if dg.String() != dp.String() {
							t.Fatalf("%s: provenance of %s diverged under policy %q:\ngreedy %s\n%-6s %s",
								label, fact, pol, dg, pol, dp)
						}
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

// TestIncrRejectsUnknownPolicy: Materialize must fail fast on a policy
// name the eval layer does not recognize, rather than silently running
// greedy.
func TestIncrRejectsUnknownPolicy(t *testing.T) {
	p := parser.MustParseProgram(`q(X) :- e(X). ?- q.`)
	_, err := Materialize(p, eval.NewDB(), Options{Policy: "fastest"})
	if err == nil {
		t.Fatal("Materialize accepted unknown policy")
	}
}

// TestIncrLongSequenceDifferential is the gate on retraction by
// tombstone (run under -race by `make incr-smoke`): sequences long
// enough to cross compaction several times, under every policy, checked
// after every batch against a fresh Materialize of the same facts —
// answers, Changes, derivation counts, Explain trees and column
// sketches — which is what a view whose retractions rebuilt its
// relations would show. The batches are random with the cases that
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
			views := make([]*View, len(incrPolicies))
			for i, pol := range incrPolicies {
				v, err := Materialize(p, fs.db(), Options{Policy: pol})
				if err != nil {
					t.Fatalf("Materialize(policy=%q): %v", pol, err)
				}
				views[i] = v
			}
			physical := func() map[string]int {
				out := map[string]int{}
				for pred, rel := range views[0].rels {
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
				for pred, rel := range views[0].rels {
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

				before := answersOf(t, views[0])
				fs.apply(adds, dels)
				fresh, err := Materialize(p, fs.db(), Options{})
				if err != nil {
					t.Fatalf("%s: fresh Materialize: %v", label, err)
				}
				after := answersOf(t, fresh)
				wantAdded, wantRemoved := diffStrings(before, after)
				// An EDB predicate that lost its last fact keeps an empty
				// relation in the view and has none in a fresh one.
				sketches := func(v *View) map[string]string {
					out := sketchSnapshot(v)
					for pred, rel := range v.rels {
						if rel.Len() == 0 && !v.idbPr[pred] {
							delete(out, pred)
						}
					}
					return out
				}
				wantSketch := sketches(fresh)
				for i, v := range views {
					vl := fmt.Sprintf("%s policy %q", label, incrPolicies[i])
					ch, err := v.Apply(adds, dels)
					if err != nil {
						t.Fatalf("%s: Apply: %v", vl, err)
					}
					if got := answersOf(t, v); !reflect.DeepEqual(got, after) {
						t.Fatalf("%s: answers\nview  %v\nfresh %v", vl, got, after)
					}
					if got := renderTuples(p.Query, ch.Added); !equalSets(got, wantAdded) {
						t.Fatalf("%s: Changes.Added %v, want %v", vl, got, wantAdded)
					}
					if got := renderTuples(p.Query, ch.Removed); !equalSets(got, wantRemoved) {
						t.Fatalf("%s: Changes.Removed %v, want %v", vl, got, wantRemoved)
					}
					for pred := range p.IDB() {
						if got, want := v.DerivationCounts(pred), fresh.DerivationCounts(pred); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %s derivation counts\nview  %v\nfresh %v", vl, pred, got, want)
						}
						if got, want := viewFacts(t, v, pred), viewFacts(t, fresh, pred); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %s\nview  %v\nfresh %v", vl, pred, got, want)
						}
					}
					// Explain reads the EDB relations alone, which every
					// policy maintains alike: one view explains after every
					// batch, the others now and then.
					for j := 0; j < len(after) && j < 2 && (i == 0 || step%16 == 0); j++ {
						fact := ast.NewAtom(p.Query, mustAnswerTuple(t, fresh, j)...)
						dv, err := v.Explain(fact)
						if err != nil {
							t.Fatalf("%s: Explain(%s): %v", vl, fact, err)
						}
						df, err := fresh.Explain(fact)
						if err != nil {
							t.Fatalf("%s: fresh Explain(%s): %v", vl, fact, err)
						}
						if dv.String() != df.String() {
							t.Fatalf("%s: provenance of %s\nview  %s\nfresh %s", vl, fact, dv, df)
						}
					}
					if got := sketches(v); !reflect.DeepEqual(got, wantSketch) {
						t.Fatalf("%s: sketches\nview  %v\nfresh %v", vl, got, wantSketch)
					}
					for pred, rel := range v.rels {
						if hi, live := rel.View().Hi, rel.Len(); hi > 2*live+8 {
							t.Fatalf("%s: %s holds %d rows for %d live ones", vl, pred, hi, live)
						}
					}
				}
				for pred, n := range physical() {
					if n < rows[pred] {
						compactions++
					}
				}
				now := order()
				rebuilt := views[0].Stats().FullRebuilds > rebuilds
				rebuilds = views[0].Stats().FullRebuilds
				for pred, was := range lay {
					if rebuilt && views[0].idbPr[pred] {
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
