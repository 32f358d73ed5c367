package incr

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/eval"
)

// Apply ingests a batch of EDB insertions and retractions and updates
// every derived relation incrementally, returning the net change to
// the query predicate's answers. Batch semantics are delete-then-
// insert: a fact both retracted and added ends up present. Unknown
// predicates (not mentioned by the program) are ignored; updating a
// derived predicate is an error. On error the view keeps its EDB
// (every ingested batch is final) but marks the IDB stale; the next
// operation repairs it with a full rebuild.
func (v *View) Apply(adds, dels []ast.Atom) (Changes, error) {
	return v.ApplyCtx(context.Background(), adds, dels)
}

// ApplyCtx is Apply under a context: cancellation or deadline expiry
// aborts the update mid-propagation (leaving the view broken, see
// Apply).
func (v *View) ApplyCtx(ctx context.Context, adds, dels []ast.Atom) (Changes, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}

	// Canonicalize the batch to net EDB deltas against current state:
	// net⁻ = retractions of present facts not re-added, net⁺ = additions
	// of absent facts.
	plus := map[string]map[string][]uint32{}
	minus := map[string]map[string][]uint32{}
	var buf []uint32
	intern1 := func(a ast.Atom) ([]uint32, error) {
		if v.idbPr[a.Pred] {
			return nil, fmt.Errorf("incr: %s is a derived predicate; only EDB facts can be updated", a.Pred)
		}
		if _, ok := v.arity[a.Pred]; !ok {
			return nil, nil // not mentioned by the program: no effect
		}
		var err error
		buf, err = v.dp.InternFact(a.Pred, a.Args, buf[:0])
		if err != nil {
			return nil, err
		}
		return append([]uint32(nil), buf...), nil
	}
	for _, a := range dels {
		row, err := intern1(a)
		if err != nil {
			return Changes{}, err
		}
		if row == nil || !v.curView(a.Pred).Contains(row) {
			continue
		}
		if minus[a.Pred] == nil {
			minus[a.Pred] = map[string][]uint32{}
		}
		minus[a.Pred][rowKey(row)] = row
	}
	for _, a := range adds {
		row, err := intern1(a)
		if err != nil {
			return Changes{}, err
		}
		if row == nil {
			continue
		}
		k := rowKey(row)
		if m := minus[a.Pred]; m != nil {
			delete(m, k) // delete-then-insert: the add wins
		}
		if v.curView(a.Pred).Contains(row) {
			continue
		}
		if plus[a.Pred] == nil {
			plus[a.Pred] = map[string][]uint32{}
		}
		plus[a.Pred][k] = row
	}
	for pred, m := range minus {
		if len(m) == 0 {
			delete(minus, pred)
		}
	}

	if v.broken {
		return v.fullRebuild(ctx, plus, minus)
	}
	if len(plus) == 0 && len(minus) == 0 {
		v.stats.Applies++
		return Changes{}, nil
	}
	for pred := range plus {
		if v.negPreds[pred] {
			return v.fullRebuild(ctx, plus, minus)
		}
	}
	for pred := range minus {
		if v.negPreds[pred] {
			return v.fullRebuild(ctx, plus, minus)
		}
	}

	// Freeze pre-update state of every relation, then ingest the EDB
	// deltas (the frozen views stay valid: deletions are stamped with the
	// epoch the freeze opened, additions append past the frozen prefix).
	oldViews := map[string]eval.RelView{}
	for pred, rel := range v.rels {
		oldViews[pred] = rel.Freeze()
	}
	deltaPlus, deltaMinus := v.ingestEDB(plus, minus)

	for i := range v.strata {
		st := &v.strata[i]
		if !v.strAffected(st, deltaPlus, deltaMinus) {
			continue
		}
		err := ctx.Err()
		if err == nil {
			err = v.applyDRed(ctx, st, oldViews, deltaPlus, deltaMinus)
		}
		if err != nil {
			v.broken = true
			v.lastGood = oldViews[v.prog.Query]
			return Changes{}, err
		}
	}

	v.finishApply()
	ch := Changes{}
	if d := deltaPlus[v.prog.Query]; nonEmpty(d) {
		ch.Added = v.dp.SortedTuples(d.View())
		v.stats.TuplesAdded += int64(d.Len())
	}
	if d := deltaMinus[v.prog.Query]; nonEmpty(d) {
		ch.Removed = v.dp.SortedTuples(d.View())
		v.stats.TuplesRemoved += int64(d.Len())
	}
	return ch, nil
}

// ingestEDB applies the net deltas to the EDB relations and returns
// them as interned delta relations keyed by predicate (the same maps
// the strata passes then extend with derived deltas). Rows are added
// in sorted key order for determinism.
func (v *View) ingestEDB(plus, minus map[string]map[string][]uint32) (deltaPlus, deltaMinus map[string]*eval.IRel) {
	deltaPlus = map[string]*eval.IRel{}
	deltaMinus = map[string]*eval.IRel{}
	predSet := map[string]bool{}
	for pred := range plus {
		predSet[pred] = true
	}
	for pred := range minus {
		predSet[pred] = true
	}
	preds := make([]string, 0, len(predSet))
	for pred := range predSet {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	for _, pred := range preds {
		ar := v.arity[pred]
		dm := v.irelFromMap(ar, minus[pred])
		dpl := v.irelFromMap(ar, plus[pred])
		rel := v.rels[pred]
		if rel == nil {
			rel = v.dp.NewIRel(ar)
			v.rels[pred] = rel
		}
		dm.View().Each(func(row []uint32) { rel.Remove(row) })
		dpl.View().Each(func(row []uint32) { rel.Add(row) })
		if dm.Len() > 0 {
			deltaMinus[pred] = dm
		}
		if dpl.Len() > 0 {
			deltaPlus[pred] = dpl
		}
	}
	return deltaPlus, deltaMinus
}

// without returns the rows of a that b does not hold.
func (v *View) without(arity int, a, b eval.RelView) *eval.IRel {
	out := v.dp.NewIRel(arity)
	a.Each(func(row []uint32) {
		if !b.Contains(row) {
			out.Add(row)
		}
	})
	return out
}

func (v *View) irelFromMap(arity int, m map[string][]uint32) *eval.IRel {
	ir := v.dp.NewIRel(arity)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ir.Add(m[k])
	}
	return ir
}

// finishApply closes a successful update. No view of a relation is
// held from one update to the next (lastGood is, but only while the
// view is broken, and then no update finishes), so this is where the
// relations drop the rows their dead outnumber.
func (v *View) finishApply() {
	v.stats.Applies++
	v.version++
	for _, rel := range v.rels {
		rel.Compact()
	}
}

func nonEmpty(ir *eval.IRel) bool { return ir != nil && ir.Len() > 0 }

// strAffected reports whether any rule of the stratum reads a
// predicate with a pending delta.
func (v *View) strAffected(st *stratum, deltaPlus, deltaMinus map[string]*eval.IRel) bool {
	for _, ri := range st.rules {
		for _, a := range v.prog.Rules[ri].Pos {
			if nonEmpty(deltaPlus[a.Pred]) || nonEmpty(deltaMinus[a.Pred]) {
				return true
			}
		}
	}
	return false
}

// applyDRed maintains a stratum by delete-rederive:
//
//  1. Overdelete: propagate the incoming deletions (and then the
//     intra-stratum overdeletions, round by round) through the
//     stratum's rules over pre-update state, collecting in D every
//     tuple with a potentially-lost derivation.
//  2. Rederive: remove D, then put back every overdeleted tuple still
//     derivable from surviving state, iterating until no progress
//     (head-bound derivability plans make each check a join seeded
//     with the candidate tuple).
//  3. Insert: semi-naive propagation of the incoming insertions over
//     post-update state.
//
// Soundness of (2): a tuple of old∖D has, by induction on the
// overdeletion fixpoint, a derivation avoiding every deleted and
// overdeleted fact; stratum rules are monotone (negation-touched
// updates never reach DRed), so that derivation survives in the new
// state. Completeness: any tuple of the new fixpoint not in old∖D is
// reached by (2)'s progress loop or (3)'s propagation.
func (v *View) applyDRed(ctx context.Context, st *stratum, oldViews map[string]eval.RelView, deltaPlus, deltaMinus map[string]*eval.IRel) error {
	// Phase 1: overdelete over pre-update state. A firing whose head the
	// old state did not hold never contributed a tuple.
	D := v.newRound(st)
	err := v.propagate(ctx, st, deltaMinus, func(p string) eval.RelView { return oldViews[p] },
		func(p string, h []uint32) bool { return oldViews[p].Contains(h) && D[p].Add(h) })
	if err != nil {
		return err
	}

	// Phase 2: remove D, then rederive survivors until a fixpoint. A
	// row put back was removed in this very epoch, so it returns in place
	// and oldViews, which must go on seeing it, does.
	for _, p := range st.preds {
		D[p].View().Each(func(row []uint32) { v.rels[p].Remove(row) })
	}
	for progress := roundTotal(D) > 0; progress; {
		progress = false
		for _, p := range st.preds {
			var err error
			D[p].View().Each(func(row []uint32) {
				if err != nil || v.rels[p].Contains(row) {
					return
				}
				if err = ctx.Err(); err != nil {
					return
				}
				var ok bool
				if ok, err = v.derivableAny(ctx, p, row); ok {
					v.rels[p].Add(row)
					progress = true
				}
			})
			if err != nil {
				return err
			}
		}
		if progress {
			v.stats.DeltaRounds++
		}
	}

	// Phase 3: semi-naive insertion over post-update state.
	ins := v.newRound(st)
	err = v.propagate(ctx, st, deltaPlus, v.curView, func(p string, h []uint32) bool {
		if !v.rels[p].Add(h) {
			return false
		}
		ins[p].Add(h)
		return true
	})
	if err != nil {
		return err
	}

	// Net deltas: deletions of D that stayed out, insertions that were
	// not present before. A tuple overdeleted and then re-derived by
	// phase 3 cancels out in both directions.
	for _, p := range st.preds {
		if d := v.without(v.arity[p], D[p].View(), v.curView(p)); d.Len() > 0 {
			deltaMinus[p] = d
		}
		if d := v.without(v.arity[p], ins[p].View(), oldViews[p]); d.Len() > 0 {
			deltaPlus[p] = d
		}
	}
	return nil
}

// propagate is DRed's one round loop, run by phases 1 and 3: every rule
// of the stratum joined with the seed delta at each occurrence of a
// predicate from outside the stratum, then round after round with the
// rows the round before accepted at each occurrence of a stratum
// predicate, until a round accepts nothing. Every other subgoal reads
// read(pred), taken afresh per pass, and accept decides what a firing's
// head row of pred is worth: the rows it accepts are the next round's
// delta. Each round after the seeds' counts as a DeltaRound.
func (v *View) propagate(ctx context.Context, st *stratum, seeds map[string]*eval.IRel, read func(pred string) eval.RelView, accept func(pred string, row []uint32) bool) error {
	round := v.newRound(st)
	pass := func(ri, occ int, d *eval.IRel) error {
		r := v.prog.Rules[ri]
		subs := make([]eval.RelView, len(r.Pos))
		for j, a := range r.Pos {
			if j == occ {
				subs[j] = d.View()
			} else {
				subs[j] = read(a.Pred)
			}
		}
		head := r.Head.Pred
		probes, err := v.dp.RunDelta(ctx, ri, occ, subs, v.negView, func(h []uint32) error {
			if accept(head, h) {
				round[head].Add(h)
			}
			return nil
		})
		v.stats.DeltaProbes += probes
		return err
	}
	// deltas names the delta of each occurrence a pass reads: the seeds
	// for the first pass, the last round's rows after.
	deltas, inStr := seeds, false
	for {
		for _, ri := range st.rules {
			for occ, a := range v.prog.Rules[ri].Pos {
				if st.inStr[a.Pred] != inStr || !nonEmpty(deltas[a.Pred]) {
					continue
				}
				if err := pass(ri, occ, deltas[a.Pred]); err != nil {
					return err
				}
			}
		}
		if roundTotal(round) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		v.stats.DeltaRounds++
		deltas, inStr, round = round, true, v.newRound(st)
	}
}

// newRound returns an empty relation for each predicate of the stratum.
func (v *View) newRound(st *stratum) map[string]*eval.IRel {
	m := make(map[string]*eval.IRel, len(st.preds))
	for _, p := range st.preds {
		m[p] = v.dp.NewIRel(v.arity[p])
	}
	return m
}

// roundTotal is the number of rows a round's relations hold.
func roundTotal(m map[string]*eval.IRel) int {
	n := 0
	for _, ir := range m {
		n += ir.Len()
	}
	return n
}

// derivableAny reports whether some rule for pred can fire with its
// head bound to row over current state.
func (v *View) derivableAny(ctx context.Context, pred string, row []uint32) (bool, error) {
	for _, ri := range v.rulesFor[pred] {
		ok, probes, err := v.dp.Derivable(ctx, ri, row, v.curViews(v.prog.Rules[ri]), v.negView)
		v.stats.RederiveChecks++
		v.stats.DeltaProbes += probes
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// fullRebuild ingests the EDB deltas and recomputes every derived
// relation from scratch. It is the fallback for updates touching
// negated predicates and the repair path for broken views; Changes are
// diffed against the last state the caller observed.
func (v *View) fullRebuild(ctx context.Context, plus, minus map[string]map[string][]uint32) (Changes, error) {
	prevQ := v.lastGood
	if !v.broken {
		prevQ = v.rels[v.prog.Query].Freeze()
	}
	v.ingestEDB(plus, minus)
	v.stats.FullRebuilds++
	if err := v.rebuildIDB(ctx); err != nil {
		v.broken = true
		v.lastGood = prevQ
		return Changes{}, err
	}
	v.broken = false
	v.lastGood = eval.RelView{}

	ch := Changes{}
	newQ := v.curView(v.prog.Query)
	ar := v.arity[v.prog.Query]
	added, removed := v.without(ar, newQ, prevQ), v.without(ar, prevQ, newQ)
	if added.Len() > 0 {
		ch.Added = v.dp.SortedTuples(added.View())
		v.stats.TuplesAdded += int64(added.Len())
	}
	if removed.Len() > 0 {
		ch.Removed = v.dp.SortedTuples(removed.View())
		v.stats.TuplesRemoved += int64(removed.Len())
	}
	v.finishApply()
	return ch, nil
}

// repairLocked rebuilds a broken view in place (no-op when consistent).
// Read paths call it so a failed Apply can never surface stale answers.
func (v *View) repairLocked(ctx context.Context) error {
	if !v.broken {
		return nil
	}
	v.stats.FullRebuilds++
	if err := v.rebuildIDB(ctx); err != nil {
		return err
	}
	v.broken = false
	v.lastGood = eval.RelView{}
	v.version++
	return nil
}
