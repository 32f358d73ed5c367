package eval

// Exported delta-execution surface for incremental view maintenance
// (package incr). A DeltaProgram compiles one program into join plans
// for every (rule, occurrence) pair — including EDB occurrences, which
// full evaluation never delta-restricts but incremental maintenance
// must (the external Δ is an EDB delta) — plus one head-bound
// derivability plan per rule, all sharing a single interner whose ids
// stay stable for the life of the handle. The caller owns relation
// storage (IRel) and decides, per run, which version of each relation
// every subgoal reads (RelView: a row range and an epoch); that
// per-subgoal old/new freedom is exactly what DRed's delta passes need
// and what the fixpoint never exposes.
//
// There is one join implementation (join.go) and this file holds two of
// its three callers. RunDelta hands every complete firing to the
// caller's emit, which decides what a firing is worth; Derivable
// seeds the binding from a candidate head row and stops at the first
// firing. The third caller is the fixpoint (compiled.go), whose emit
// appends to the IDB relation being read. All three read each subgoal
// through a RelView and none knows how the others use what is emitted.
// There is one fixpoint loop too: Fixpoint runs the engine's over the
// caller's relations, which is how a view is (re)materialized.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ast"
)

// errStopRun stops a derivability run at its first complete firing.
var errStopRun = errors.New("eval: stop delta run")

func stopRun([]uint32) error { return errStopRun }

// DeltaProgram is a compiled handle for delta evaluation of one
// validated program. Its compiled surface changes only in OrderJoins and
// is safe for concurrent RunDelta/Derivable calls only when the views
// passed in are not being written — the intended single-writer
// discipline of incremental maintenance.
type DeltaProgram struct {
	lay       *layout
	in        *interner
	plans     []*plan // by plan index: every (rule, occurrence) pair
	headPlans []*plan // per rule: head variables pre-bound (Derivable)
}

// CompileDeltaProgram validates p and compiles its plans. Unlike the
// fixpoint's own plans (compileSlot), every positive occurrence of every
// rule gets a delta plan (occ ranges over all subgoals, not just IDB
// ones). With
// no relation lengths known yet, ties between EDB subgoals go to the
// lower index until OrderJoins says otherwise.
func CompileDeltaProgram(p *ast.Program) (*DeltaProgram, error) {
	lay, err := newLayout(p)
	if err != nil {
		return nil, err
	}
	dp := &DeltaProgram{
		lay:       lay,
		in:        newInterner(),
		plans:     make([]*plan, lay.nPlans),
		headPlans: make([]*plan, len(p.Rules)),
	}
	dp.OrderJoins(nil)
	return dp, nil
}

// OrderJoins chooses every plan's join order the way the engine's
// fixpoint would over EDB relations of the lengths edbLen reports: a tie
// between two EDB subgoals goes to the shorter relation (nil: to the
// lower index). A plan whose order stands is kept. It rewrites the
// plans, so no RunDelta or Derivable may run alongside it.
func (dp *DeltaProgram) OrderJoins(edbLen func(pred string) int) {
	lay := dp.lay
	replan := func(old *plan, i, occ int, headBound bool) *plan {
		r := lay.prog.Rules[i]
		order := joinOrder(r, occ, headBound, lay.idbPr, edbLen)
		if old != nil && intsEqual(old.order, order) {
			return old
		}
		return compilePlan(dp.in, lay, r, i, occ, headBound, order)
	}
	for i, r := range lay.prog.Rules {
		for occ := -1; occ < len(r.Pos); occ++ {
			k := lay.planIdx(i, occ)
			dp.plans[k] = replan(dp.plans[k], i, occ, false)
		}
		dp.headPlans[i] = replan(dp.headPlans[i], i, -1, true)
	}
}

// PredArity returns the arity of a predicate the program mentions.
func (dp *DeltaProgram) PredArity(pred string) (int, bool) {
	k, ok := dp.lay.ids[pred]
	if !ok {
		return 0, false
	}
	return dp.lay.arity[k], true
}

// IRel is an interned relation owned by the caller: flat rows of
// DeltaProgram-interned ids, set-semantic (Add dedups). Rows are only
// ever appended; Remove marks a row dead where it lies (irel, intern.go),
// so a retraction costs what it retracts and the indexes built so far
// stay good.
type IRel irel

// rel is the relation as the engine knows it (nil for nil): the two
// types share one layout, so the evaluator's own relations are read
// through RelViews without a wrapper.
func (ir *IRel) rel() *irel { return (*irel)(ir) }

// NewIRel returns an empty relation of the given arity.
func (dp *DeltaProgram) NewIRel(arity int) *IRel {
	r := newIrel(arity, 0)
	r.epoch = 1
	return (*IRel)(r)
}

// Len returns the number of live rows (0 for nil).
func (ir *IRel) Len() int {
	if ir == nil {
		return 0
	}
	return ir.n - ir.nDead
}

// Row returns the i-th row ever appended, live or not (View().Each
// lists the live ones). The slice aliases internal storage: callers
// must not modify it, and must not retain it across an Add (which may
// grow the backing array).
func (ir *IRel) Row(i int) []uint32 { return ir.rel().row(i) }

// Add appends a row unless a live copy is present, copying the values,
// and reports whether the row was new.
func (ir *IRel) Add(row []uint32) bool {
	if ir.nDead > 0 {
		return ir.rel().addBack(row)
	}
	return ir.rel().add(row)
}

// Remove takes a row out in O(1), reporting whether it was there.
func (ir *IRel) Remove(row []uint32) bool { return ir.rel().remove(row) }

// Contains reports whether the relation holds the row.
func (ir *IRel) Contains(row []uint32) bool { return ir.View().Contains(row) }

// Compact drops the removed rows once they outnumber the live ones (or
// the epochs run out), keeping the order of the rest. It voids every
// RelView of the relation, so it runs between updates, never inside one.
func (ir *IRel) Compact() {
	if r := ir.rel(); r.nDead > r.n-r.nDead || r.epoch >= 1<<31 {
		r.compact()
	}
}

// View returns the relation's current contents: the rows appended so
// far, less the ones removed so far. Rows appended later stay out of
// it, which is what lets a delta pass read a relation it is adding to.
func (ir *IRel) View() RelView {
	if ir == nil {
		return RelView{}
	}
	return RelView{Rel: ir, Hi: ir.n, Epoch: ir.epoch, live: ir.Len()}
}

// whole is the view of every row of a relation nothing is removed from
// (nil-safe): how the fixpoint reads the EDB base.
func (r *irel) whole() RelView {
	if r == nil {
		return RelView{}
	}
	return RelView{Rel: (*IRel)(r), Hi: r.n, live: r.n}
}

// Freeze returns View() and opens a new epoch, so that later removals
// stay out of the returned view as well: it is the pre-update state of
// the relation for as long as the update runs, at no cost — the cheap
// MVCC that lets a delta pass read "old" state while building "new". A
// relation keeps one frozen generation: the next Freeze, like Compact,
// voids this view (a row re-added after it is found at its new copy).
func (ir *IRel) Freeze() RelView {
	v := ir.View()
	if ir != nil {
		ir.epoch++
	}
	return v
}

// RelView is a version of a relation: rows [Lo, Hi) of Rel less the ones
// removed in or before Epoch. It is what the join kernel reads every
// subgoal through, the fixpoint's included. View and Freeze return Lo 0;
// a caller that keeps a mark from an earlier View can raise Lo to it and
// read only the rows appended since, the way the fixpoint reads its
// semi-naive delta (Len is unchanged by that: it stays the count of the
// whole prefix). The zero value is an empty relation.
type RelView struct {
	Rel    *IRel
	Lo, Hi int
	Epoch  uint32
	live   int
}

// Len returns the number of rows the view held when it was taken.
func (v RelView) Len() int { return v.live }

// Contains reports membership in O(1) (find).
func (v RelView) Contains(row []uint32) bool { return v.find(row) >= 0 }

// find returns the index of row in the view's relation, or -1 when the
// view does not hold it. The relation's dedup set stores row indexes, so
// a hit outside [Lo, Hi) — a row appended after the view was taken, say
// — reads as absent, like one the view's epoch hides.
func (v RelView) find(row []uint32) int {
	if v.Rel == nil || v.Hi <= v.Lo {
		return -1
	}
	idx := int(v.Rel.set.findIdx(row, hashU32s(row)))
	if idx < v.Lo || idx >= v.Hi || v.Rel.rel().hidden(idx, v.Epoch) {
		return -1
	}
	return idx
}

// Each calls f with every row of the view, in row order. The slice is
// internal storage: f must not modify or keep it.
func (v RelView) Each(f func(row []uint32)) {
	r := v.Rel.rel()
	for i := v.Lo; i < v.Hi; i++ {
		if !r.hidden(i, v.Epoch) {
			f(r.row(i))
		}
	}
}

// Result copies the view's rows out as a Result that owes the relation
// and the program nothing afterwards: the rows are its own, and its
// interner is the prefix of the program's that exists now, which later
// InternFact calls only extend. Take it under whatever excludes the
// relation's writer; read it without.
func (dp *DeltaProgram) Result(v RelView) *Result {
	res := &Result{n: v.live}
	if v.Rel != nil {
		res.arity = v.Rel.arity
		res.data = make([]uint32, 0, v.live*res.arity)
		v.Each(func(row []uint32) { res.data = append(res.data, row...) })
	}
	// The key cache goes along, with the keys of these rows filled in now:
	// the writer fills other entries later, never these.
	for _, id := range res.data {
		dp.in.termKey(id)
	}
	terms, keys := dp.in.terms, dp.in.keys
	res.in = &interner{terms: terms[:len(terms):len(terms)], keys: keys[:len(keys):len(keys)]}
	return res
}

// SortedTuples returns the view's rows as tuples in Tuple.Key order,
// rendering each distinct constant's key once. Like InternFact it is for
// the relations' single writer.
func (dp *DeltaProgram) SortedTuples(v RelView) []Tuple {
	res := dp.Result(v)
	perm, _, _ := res.order(ByKey)
	return res.tuplesIn(perm)
}

// InternFact interns a ground tuple of pred, appending the row to buf
// and returning it. Errors on unknown predicates, arity mismatches, and
// non-ground arguments.
func (dp *DeltaProgram) InternFact(pred string, args []ast.Term, buf []uint32) ([]uint32, error) {
	ar, ok := dp.PredArity(pred)
	if !ok {
		return nil, fmt.Errorf("eval: predicate %s is not mentioned by the program", pred)
	}
	if len(args) != ar {
		return nil, fmt.Errorf("eval: %s expects %d arguments, got %d", pred, ar, len(args))
	}
	for _, t := range args {
		if !t.IsConst() {
			return nil, fmt.Errorf("eval: fact %s(...) has non-ground argument %s", pred, t)
		}
		buf = append(buf, dp.in.intern(t))
	}
	return buf, nil
}

// Fixpoint runs the engine's fixpoint (compiled.go) — its rounds, its
// schedule, its mid-task reorder — over relations the caller owns, with
// the handle's plans: the engine's own once OrderJoins has ordered them
// for the EDB's lengths. rels must hold an empty relation for every IDB
// predicate, which the rounds append to in place; every EDB relation is
// read through its View as it is when Fixpoint is called, so removed
// rows stay out, and a predicate rels does not hold is empty. maxTuples
// bounds the tuples derived as Options.MaxTuples does. The Stats are
// the engine's, filled in as far as the run got. Like OrderJoins it runs
// alone: no other call on the handle or its relations may overlap it.
func (dp *DeltaProgram) Fixpoint(ctx context.Context, rels map[string]*IRel, maxTuples int64) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lay := dp.lay
	ev := &cEvaluator{
		ctx:       ctx,
		lay:       lay,
		maxTuples: maxTuples,
		stats:     &Stats{},
		in:        dp.in,
		edb:       make([]RelView, len(lay.preds)),
		idb:       make([]idbRel, lay.nIDB),
		plans:     dp.plans,
	}
	for k, pred := range lay.preds {
		if k < lay.nIDB {
			ev.idb[k].irel = rels[pred].rel()
		} else {
			ev.edb[k] = rels[pred].View()
		}
	}
	err := ev.run()
	return ev.stats, err
}

// newRun points a fresh join (join.go) at pl over the caller's views.
func (dp *DeltaProgram) newRun(ctx context.Context, pl *plan, subs []RelView, negs func(string) RelView, emit func([]uint32) error) *joinRun {
	tr := &joinRun{ctx: ctx, in: dp.in, subs: subs, emit: emit}
	if negs != nil {
		tr.negs = func(tpl *atomTpl) RelView { return negs(tpl.pred) }
	}
	tr.setPlan(pl)
	return tr
}

// RunDelta evaluates rule ruleIdx with subgoal occ (by subgoal index;
// -1 for the full join) delta-restricted, reading each positive subgoal
// j from subs[j] and each negated subgoal from negs(pred) (nil negs
// reads every negated instance as absent). emit is called once per
// complete rule firing with the instantiated head row; the slice is
// reused across calls, so copy it to retain, and a non-nil emit error
// aborts the run and is returned verbatim. No dedup, budget, or
// firing/derivation accounting happens here — only join probes are
// counted (the returned int64); delta passes own those semantics.
// Emitting may append to the very relations being read: views bound
// the iteration to their frozen prefix. The join order is the plan's
// (OrderJoins); a pass has no mid-run reorder — it is short-lived, and
// the emit contract (every firing, caller-owned dedup) leaves it no
// checkpoint to swap plans at.
func (dp *DeltaProgram) RunDelta(ctx context.Context, ruleIdx, occ int, subs []RelView, negs func(string) RelView, emit func([]uint32) error) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rules := dp.lay.prog.Rules
	if ruleIdx < 0 || ruleIdx >= len(rules) || occ < -1 || occ >= len(rules[ruleIdx].Pos) {
		return 0, fmt.Errorf("eval: no plan for rule %d occurrence %d", ruleIdx, occ)
	}
	pl := dp.plans[dp.lay.planIdx(ruleIdx, occ)]
	if got, want := len(subs), len(rules[ruleIdx].Pos); got != want {
		return 0, fmt.Errorf("eval: rule %d has %d subgoals, got %d views", ruleIdx, want, got)
	}
	tr := dp.newRun(ctx, pl, subs, negs, emit)
	err := tr.run()
	return tr.probes, err
}

// Derivable reports whether head — an interned row of rule ruleIdx's
// head predicate — has at least one firing over the supplied views. It
// uses the rule's head-bound plan: the candidate row seeds the binding
// slots, so every subgoal sees the head's variables as bound and the
// join explores only instantiations that could derive exactly this
// row. Probe count is returned for accounting.
func (dp *DeltaProgram) Derivable(ctx context.Context, ruleIdx int, head []uint32, subs []RelView, negs func(string) RelView) (bool, int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pl := dp.headPlans[ruleIdx]
	if got, want := len(subs), len(dp.lay.prog.Rules[ruleIdx].Pos); got != want {
		return false, 0, fmt.Errorf("eval: rule %d has %d subgoals, got %d views", ruleIdx, want, got)
	}
	tr := dp.newRun(ctx, pl, subs, negs, stopRun)
	// Seed the binding from the candidate row: constants must match
	// outright; variable slots take the row's value, and a second pass
	// catches repeated head variables whose positions disagree (the
	// last write wins in pass one, so any mismatch survives to pass
	// two).
	for j, c := range pl.head.isConst {
		if c {
			if head[j] != pl.head.vals[j] {
				return false, 0, nil
			}
		} else {
			tr.binding[pl.head.vals[j]] = head[j]
		}
	}
	for j, c := range pl.head.isConst {
		if !c && tr.binding[pl.head.vals[j]] != head[j] {
			return false, 0, nil
		}
	}
	err := tr.run()
	if err == errStopRun {
		return true, tr.probes, nil
	}
	return false, tr.probes, err
}
