package eval

// The join kernel: the one implementation of the nested-loop join over a
// compiled plan. It reads each subgoal through a RelView (delta.go) — a
// relation, a row range and an epoch — and hands every complete firing
// to its caller; what a firing means (a new IDB tuple, a delta row, a
// derivability witness) is the caller's business. The fixpoint
// (compiled.go), RunDelta and Derivable (delta.go) are its three
// callers, and each starts a join with run, so a rule with an empty
// subgoal costs none of them a probe.

import (
	"context"
	"runtime"

	"repro/internal/ast"
)

// cancelPollMask throttles the in-join context poll to one ctx.Err()
// call per (mask+1) join probes, counted over the life of a joinRun.
const cancelPollMask = 0x3ff

// yieldMask makes a joinRun yield the processor once per (mask+1) join
// probes. An evaluation is one goroutine that never blocks, and with a
// core to itself it would otherwise run from preemption to preemption:
// the collector's mark workers queue behind it, a mark phase of a
// millisecond's work stretches over tens of milliseconds, and the heap
// overshoots its goal for as long as it lasts. The cadence is work done,
// not rounds: a point query's forty two-tuple rounds never reach it.
const yieldMask = 0xfff

// joinRun is the state of one join at a time: the live plan, the view
// each subgoal reads, a flat slot binding and the probe, negation and
// head scratch buffers. A run is re-pointed at plan after plan
// (setPlan), so neither a task nor a candidate row allocates once the
// buffers have grown.
type joinRun struct {
	ctx  context.Context
	in   *interner
	pl   *plan
	subs []RelView // indexed by subgoal index (subPlan.subIdx)
	// negs resolves the relation a negated subgoal is checked against;
	// nil reads every negated instance as absent.
	negs func(tpl *atomTpl) RelView
	// emit receives the instantiated head row of every complete firing.
	// The slice is reused; a non-nil error aborts the join and is
	// returned verbatim. It may append to the relations being read.
	emit      func(head []uint32) error
	binding   []uint32
	probeBufs [][]uint32 // per-depth bound-value scratch
	negBuf    []uint32
	headBuf   []uint32
	probes    int64 // candidate rows tried, over the life of the run
	// ixs holds, per depth, the index an indexed subgoal is probed
	// through, resolved at its first probe of the live plan: a task pays
	// the relation's index lookup once, not at every entry to the depth.
	ixs []*rowIndex
	// Mid-task reorder hooks (nil otherwise; the fixpoint's only):
	// matches counts the rows that passed every filter per depth, and
	// between runs after each depth-0 row, when no deeper join frame is
	// live.
	matches []int64
	between func()
}

// setPlan makes pl the live plan and sizes the buffers it needs. Stale
// values in reused buffers are never observable: a slot or scratch cell
// is only read after the live plan wrote it. The binding keeps its
// contents when its size does not change — nSlots is the same for every
// order of one rule — which is what a mid-join plan swap relies on. The
// resolved indexes are forgotten: every run of the kernel starts here,
// so an index is never read through a plan or a view it was not
// resolved for.
func (tr *joinRun) setPlan(pl *plan) {
	tr.pl = pl
	if cap(tr.probeBufs) < len(pl.subs) {
		tr.probeBufs = append(make([][]uint32, 0, len(pl.subs)), tr.probeBufs...)
	}
	tr.probeBufs = tr.probeBufs[:len(pl.subs)]
	if cap(tr.ixs) < len(pl.subs) {
		tr.ixs = make([]*rowIndex, len(pl.subs))
	}
	tr.ixs = tr.ixs[:len(pl.subs)]
	clear(tr.ixs)
	for i := range pl.subs {
		tr.probeBufs[i] = sizedU32(tr.probeBufs[i], len(pl.subs[i].boundPos))
	}
	tr.binding = sizedU32(tr.binding, pl.nSlots)
	tr.negBuf = sizedU32(tr.negBuf, pl.maxNegArity)
	tr.headBuf = sizedU32(tr.headBuf, len(pl.head.isConst))
}

// sizedU32 returns buf resized to n values, reallocating only to grow.
func sizedU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// run joins the live plan from depth 0, unless a positive subgoal's view
// is empty: then the rule cannot fire in any join order, and finding
// that out at the depth that reads the empty view would cost the probes
// of every depth before it (the early exit on empty inputs of "When
// Greedy Beats Optimal").
func (tr *joinRun) run() error {
	for _, v := range tr.subs {
		if v.Hi <= v.Lo || v.live == 0 {
			return nil
		}
	}
	return tr.join(0)
}

// join extends the slot binding over the plan's subgoals starting at the
// given join depth. Every read is bounded by the subgoal's view: a
// fully bound subgoal is one lookup in the relation's dedup set,
// answered through the view as Contains answers it; an index chain is
// in ascending row order, so the first candidate at or past Hi ends it;
// and every path passes over the rows the view's epoch hides — they are
// not candidates and count no probe. A relation with
// no removed rows pays one length check of a nil slice for that. Rows
// appended after the view was taken stay out of it, which is what lets
// emit append to a relation the join is reading.
func (tr *joinRun) join(depth int) error {
	pl := tr.pl
	if depth == len(pl.subs) {
		return tr.finish()
	}
	sp := &pl.subs[depth]
	v := tr.subs[sp.subIdx]
	rel := v.Rel.rel()
	if rel == nil || v.Hi <= v.Lo {
		return nil
	}
	bound := sp.indexable && len(sp.boundPos) > 0
	var vals []uint32
	if bound {
		vals = tr.probeBufs[depth]
		for k, c := range sp.boundConst {
			if c {
				vals[k] = sp.boundVal[k]
			} else {
				vals[k] = tr.binding[sp.boundVal[k]]
			}
		}
	}
	if bound && len(vals) == rel.arity {
		// Every position bound: the probe is a membership check, and the
		// relation's dedup set already is its full-key index. Read
		// through the view, it is the one candidate an index chain would
		// yield, so it counts the same probe.
		if ri := v.find(vals); ri >= 0 {
			if err := tr.tryRow(depth, rel.row(ri), false); err != nil {
				return err
			}
			if depth == 0 && tr.between != nil {
				tr.between()
			}
		}
		return nil
	}
	if bound && sp.src != srcDelta {
		ix := tr.ixs[depth]
		if ix == nil {
			ix = rel.index(sp.mask, sp.boundPos)
			tr.ixs[depth] = ix
		}
		// An empty lookup is a successful (and final) answer; never
		// fall back to a scan.
		for ri := ix.lookup(rel, vals); ri >= 0 && int(ri) < v.Hi; ri = ix.next[ri] {
			if int(ri) < v.Lo || rel.hidden(int(ri), v.Epoch) {
				continue
			}
			if err := tr.tryRow(depth, rel.row(int(ri)), false); err != nil {
				return err
			}
			if depth == 0 && tr.between != nil {
				tr.between()
			}
		}
		return nil
	}
	// A scan of rows [Lo, Hi). The delta occurrence is always the plan's
	// first subgoal, so whatever it binds is a constant and one pass over
	// its window — usually the few rows the last round appended — is all
	// an index over it could save: rows that do not match are skipped
	// without being counted, which tries exactly the rows, in the
	// ascending order, such an index would chain.
	for i := v.Lo; i < v.Hi; i++ {
		if rel.hidden(i, v.Epoch) {
			continue
		}
		row := rel.row(i)
		if bound && !projEqual(row, sp.boundPos, vals) {
			continue
		}
		if err := tr.tryRow(depth, row, !bound); err != nil {
			return err
		}
		if depth == 0 && tr.between != nil {
			tr.between()
		}
	}
	return nil
}

// tryRow tries one candidate row at one depth. verify is true on the
// scan path of a subgoal without an index, where bound positions must
// be checked here; index candidates match them by construction (the
// index compares values exactly, so collisions never reach here).
func (tr *joinRun) tryRow(depth int, row []uint32, verify bool) error {
	tr.probes++
	if tr.probes&cancelPollMask == 0 {
		if err := tr.ctx.Err(); err != nil {
			return err
		}
		if tr.probes&yieldMask == 0 {
			runtime.Gosched()
		}
	}
	sp := &tr.pl.subs[depth]
	if verify {
		for k, p := range sp.boundPos {
			want := sp.boundVal[k]
			if !sp.boundConst[k] {
				want = tr.binding[want]
			}
			if row[p] != want {
				return nil
			}
		}
	}
	// Bind fresh slots, then check repeated in-atom occurrences. No
	// undo is needed on backtrack: a slot is only read at depths where
	// the plan statically bound it.
	for k, p := range sp.bindPos {
		tr.binding[sp.bindSlot[k]] = row[p]
	}
	for k, p := range sp.checkPos {
		if row[p] != tr.binding[sp.checkSlot[k]] {
			return nil
		}
	}
	for i := range sp.cmps {
		if !tr.evalCmp(&sp.cmps[i]) {
			return nil
		}
	}
	for i := range sp.negs {
		if tr.negContains(&sp.negs[i]) {
			return nil
		}
	}
	if tr.matches != nil {
		tr.matches[depth]++
	}
	return tr.join(depth + 1)
}

// evalCmp evaluates a compiled comparison. Equality on canonical intern
// ids is id equality; the four order operators compare two numbers by
// value, three-way as Term.Compare does (a NaN is neither below nor
// above anything), and delegate any other pair to Term.Compare.
func (tr *joinRun) evalCmp(c *cmpPlan) bool {
	l, r := c.l, c.r
	if !c.lConst {
		l = tr.binding[l]
	}
	if !c.rConst {
		r = tr.binding[r]
	}
	switch c.op {
	case ast.EQ:
		return l == r
	case ast.NE:
		return l != r
	}
	a, b := tr.in.term(l), tr.in.term(r)
	if a.Kind != ast.Num || b.Kind != ast.Num {
		return ast.NewCmp(a, c.op, b).Eval()
	}
	switch {
	case a.Val < b.Val:
		return c.op.Holds(-1)
	case a.Val > b.Val:
		return c.op.Holds(1)
	}
	return c.op.Holds(0)
}

// negContains reports whether the ground instance of a negated subgoal
// is present in the relation negs resolves it to.
func (tr *joinRun) negContains(tpl *atomTpl) bool {
	if tr.negs == nil {
		return false
	}
	v := tr.negs(tpl)
	buf := tr.negBuf[:len(tpl.isConst)]
	for j, c := range tpl.isConst {
		if c {
			buf[j] = tpl.vals[j]
		} else {
			buf[j] = tr.binding[tpl.vals[j]]
		}
	}
	return v.Contains(buf)
}

// finish instantiates the head for a complete binding and hands it to
// the caller.
func (tr *joinRun) finish() error {
	pl := tr.pl
	for i := range pl.finishCmps {
		if !tr.evalCmp(&pl.finishCmps[i]) {
			return nil
		}
	}
	for i := range pl.finishNegs {
		if tr.negContains(&pl.finishNegs[i]) {
			return nil
		}
	}
	row := tr.headBuf
	for j, c := range pl.head.isConst {
		if c {
			row[j] = pl.head.vals[j]
		} else {
			row[j] = tr.binding[pl.head.vals[j]]
		}
	}
	return tr.emit(row)
}
