package eval

// The evaluation engine: one goroutine, rounds over a frozen prefix,
// merge in place. Rules become plans (plan.go), tuples become flat
// []uint32 rows (intern.go), the per-candidate binding is a flat slot
// array, and the join itself is the kernel every executor shares
// (join.go); this file is the fixpoint that drives it.
//
// A round records each IDB relation's length at its barrier, and every
// read inside the round — scan, index chain, delta window, the fan-outs
// a mid-task reorder weighs — is bounded by that frozen length. So a
// rule may append its heads to the very relation it is reading: a complete
// firing is hashed once and addHashed straight into its IDB relation,
// one probe-and-insert into the dedup set and one row append, and if
// it was new it is counted, and its provenance step materialized from
// the live binding, there and then. There is no output buffer, no
// second dedup table and nothing to merge at the barrier. The rows a
// round appended — [frozen length, length) — are the next round's delta
// window, never a copy.
//
// Append order is what the answers' order, the recorded first
// derivation of every fact and the pinned counters hang on, and it is
// fixed by the schedule alone: tasks run one after another in rule
// order (then occurrence order), a task derives heads in join order,
// and the first derivation of a tuple wins its place. That is the order
// a per-task buffer merged in task order at the barrier produced, which
// this engine used to do.
//
// The evaluation never blocks, so it yields the processor once per
// 4,096 join probes (yieldMask, join.go): in proportion to work done,
// beside the cancellation poll, so that the collector's workers get to
// run while it allocates. Rows become terms again only when the caller
// asks: a query's answers leave as a Result (result.go) — the matching
// rows and the interner, nothing else of the evaluator. Answers are
// checked against internal/refeval, counters against pinned values and
// provenance by a derivation-tree validator (compiled_test.go).

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ast"
)

// evalCompiled validates and evaluates p over edb, recording provenance
// steps into prov when non-nil, and returns the evaluator holding the
// interned fixpoint; publicIDB converts it, answers wraps the part of it
// the caller asked for. It compiles p's plans for this one evaluation;
// a Prepared query keeps them (eval.go).
func evalCompiled(ctx context.Context, p *ast.Program, edb *DB, opts Options, prov *Provenance) (*cEvaluator, error) {
	lay, err := newLayout(p)
	if err != nil {
		return nil, err
	}
	ev, err := newEvaluator(ctx, lay, opts, prov)
	if err != nil {
		return nil, err
	}
	base := ev.base(edb)
	ev.use(ev.compileSlot(base, -1), base)
	if err := ev.run(); err != nil {
		return nil, err
	}
	return ev, nil
}

// newEvaluator starts an evaluation of lay's program: its IDB relations
// are empty, and use gives it plans and an EDB.
func newEvaluator(ctx context.Context, lay *layout, opts Options, prov *Provenance) (*cEvaluator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.validateModes(); err != nil {
		return nil, err
	}
	ev := &cEvaluator{
		ctx:       ctx,
		lay:       lay,
		maxTuples: opts.MaxTuples,
		stats:     &Stats{},
		prov:      prov,
		idb:       make([]idbRel, lay.nIDB),
	}
	for k := range ev.idb {
		ev.idb[k].irel = newIrel(lay.arity[k], 0)
	}
	return ev, nil
}

// idbRel is an IDB relation with the two marks a round reads it
// through: rows [0, hi) existed at the last barrier — the frozen prefix
// — and rows [lo, hi) are the ones the round before appended, the
// semi-naive delta window. Rows from hi on belong to the running round.
type idbRel struct {
	*irel
	lo, hi int
}

type cEvaluator struct {
	ctx       context.Context
	lay       *layout
	maxTuples int64 // Options.MaxTuples
	stats     *Stats
	in        *interner // a private overlay on the plans', or the DeltaProgram's
	// edb is every EDB relation the program reads, by predicate id, as the
	// whole fixpoint reads it: the DB's interned base whole, or the
	// caller's relations as they were when DeltaProgram.Fixpoint was
	// called. The IDB ids' entries are unused.
	edb   []RelView
	idb   []idbRel // by predicate id, below lay.nIDB
	plans []*plan  // by plan index; read, never written
	prov  *Provenance
	// tr is the evaluation's one join state, pointed at task after task,
	// round after round. head and est belong to the task it is running:
	// the relation its firings go to and, for a task that may reorder,
	// the exact fan-out of each depth once asked for (0 until then).
	// matches backs tr.matches from task to task, and reorder is
	// maybeReorder as the func the join calls back.
	tr      joinRun
	head    *irel
	est     []float64
	matches []int64
	reorder func()
}

// planSlot is what evaluating one program over one interned base needs
// and no run changes: every plan, compiled against the base's lengths and
// interner, and the rule constants the base lacks. It is immutable once
// built — a fixpoint reads its plans, and a mid-task reorder compiles a
// plan of its own — so a Prepared query keeps the last one and any number
// of its runs share it. It names its base by number and holds nothing of
// it: a slot that outlives its base pins none of the base's rows or
// constants, only what the size of the program bounds.
type planSlot struct {
	baseID uint64
	// consts is a frozen level holding the rule constants the base lacks
	// (nil: none), at the ids every plan of the slot was compiled with.
	// It is kept detached from the base's interner; use puts a copy back
	// over it.
	consts *interner
	plans  []*plan // by plan index; nil at skip and where nothing runs
}

// base returns edb's interned base, counting the tuples interned when
// this evaluation had to build it.
func (ev *cEvaluator) base(edb *DB) *edbBase {
	base, built := edb.interned()
	if built {
		ev.stats.EDBRowsInterned = int64(base.rows)
	}
	return base
}

// compileSlot compiles, over base, each rule's full join and its plan
// for every IDB occurrence, except the plan at index skip (-1: none),
// counting them in the evaluation's Stats. Nothing of base is written:
// the rule constants it lacks go to a level of the slot's own.
func (ev *cEvaluator) compileSlot(base *edbBase, skip int) *planSlot {
	lay := ev.lay
	s := &planSlot{baseID: base.id, plans: make([]*plan, lay.nPlans)}
	start := time.Now()
	in := base.in.overlay()
	edbLen := func(pred string) int { return base.rels[pred].whole().Len() }
	for i, r := range lay.prog.Rules {
		for occ := -1; occ < len(r.Pos); occ++ {
			if k := lay.planIdx(i, occ); k != skip && (occ < 0 || lay.idbPr[r.Pos[occ].Pred]) {
				s.plans[k] = compilePlan(in, lay, r, i, occ, false, joinOrder(r, occ, false, lay.idbPr, edbLen))
				ev.stats.PlansCompiled++
			}
		}
	}
	if len(in.terms) > 0 {
		in.freeze()
		in.under = nil
		s.consts = in
	}
	ev.stats.PlanNanos += time.Since(start).Nanoseconds()
	return s
}

// negEDB returns the EDB relation a negated subgoal is checked against.
func (ev *cEvaluator) negEDB(tpl *atomTpl) RelView { return ev.edb[tpl.rel] }

// use points the evaluation at s's plans and at the EDB relations of
// base, the base s was compiled over, under a private overlay on base's
// interner and s's rule constants.
func (ev *cEvaluator) use(s *planSlot, base *edbBase) {
	in := base.in
	if s.consts != nil {
		lvl := *s.consts
		lvl.under = in
		in = &lvl
	}
	lay := ev.lay
	ev.in, ev.plans, ev.edb = in.overlay(), s.plans, make([]RelView, len(lay.preds))
	for k := lay.nIDB; k < len(lay.preds); k++ {
		ev.edb[k] = base.rels[lay.preds[k]].whole()
	}
}

// run is the fixpoint loop: the init rules once, then every (rule, IDB
// occurrence) pair with that occurrence restricted to the previous
// round's delta window, until a round derives nothing.
func (ev *cEvaluator) run() error {
	ev.tr = joinRun{ctx: ev.ctx, in: ev.in, negs: ev.negEDB, emit: ev.derive}
	ev.reorder = ev.maybeReorder
	ev.stats.rounds.preds = ev.lay.preds[:ev.lay.nIDB]
	defer func() {
		// Join scratch must not outlive the fixpoint into the conversion,
		// nor the reorder callback, which points back at ev.
		ev.stats.JoinProbes = ev.tr.probes
		ev.tr, ev.reorder = joinRun{}, nil
	}()
	tasks := ev.lay.init
	for {
		if err := ev.ctx.Err(); err != nil {
			return err
		}
		ev.stats.Iterations++
		before := ev.stats.TuplesDerived
		if err := ev.runRound(tasks); err != nil {
			return err
		}
		if ev.stats.TuplesDerived == before {
			return nil
		}
		tasks = ev.lay.delta
	}
}

// runRound runs the round's tasks one after another, each appending what
// it derives to its head relation, and then moves every relation's marks
// up: the rows this round appended are the next round's delta window.
func (ev *cEvaluator) runRound(tasks []int) error {
	log := &ev.stats.rounds
	at := len(log.counts)
	log.counts = append(log.counts, make([]int64, len(log.preds))...)
	for _, k := range tasks {
		before := ev.stats.TuplesDerived
		err := ev.runTask(k)
		log.counts[at+ev.tr.pl.head.rel] += ev.stats.TuplesDerived - before
		if err != nil {
			log.counts = log.counts[:at]
			return err
		}
	}
	log.n++
	// Footprint at the round barrier: every IDB tuple plus the rows in the
	// new delta window.
	peak := int64(0)
	for k := range ev.idb {
		ir := &ev.idb[k]
		ir.lo, ir.hi = ir.hi, ir.n
		peak += int64(ir.n + ir.hi - ir.lo)
	}
	if peak > ev.stats.PeakMaterialized {
		ev.stats.PeakMaterialized = peak
	}
	return nil
}

// runTask evaluates one rule with one subgoal occurrence restricted to
// the delta window (occ == -1 for no restriction). Tasks read the
// round's frozen prefixes and append only past them, so a task never
// sees what it, or a task before it in the round, derived. A task of
// three or more subgoals watches its fan-outs for the one reorder it
// may make (maybeReorder); with two, the subgoal after the pinned first
// one has no alternative.
func (ev *cEvaluator) runTask(k int) error {
	tr := &ev.tr
	ev.setPlan(ev.plans[k])
	tr.matches, tr.between = nil, nil
	if n := len(tr.pl.subs); n >= 3 {
		if cap(ev.matches) < n {
			ev.matches, ev.est = make([]int64, n), make([]float64, n)
		}
		tr.matches, ev.est, tr.between = ev.matches[:n], ev.est[:n], ev.reorder
		clear(tr.matches)
		clear(ev.est)
	}
	ev.head = ev.idb[tr.pl.head.rel].irel
	return tr.run()
}

// setPlan makes pl the join's live plan and points each subgoal at the
// view it reads: an EDB relation as the evaluation fixed it, an IDB
// relation up to its frozen length, the delta occurrence from the mark
// before.
func (ev *cEvaluator) setPlan(pl *plan) {
	tr := &ev.tr
	tr.setPlan(pl)
	if cap(tr.subs) < len(pl.subs) {
		tr.subs = make([]RelView, len(pl.subs))
	}
	tr.subs = tr.subs[:len(pl.subs)]
	for d := range pl.subs {
		sp := &pl.subs[d]
		var v RelView
		if sp.src == srcEDB {
			v = ev.edb[sp.rel]
		} else {
			ir := &ev.idb[sp.rel]
			v = RelView{Rel: (*IRel)(ir.irel), Hi: ir.hi, live: ir.hi}
			if sp.src == srcDelta {
				v.Lo = ir.lo
			}
		}
		tr.subs[sp.subIdx] = v
	}
}

// derive receives every complete firing of the running task. Firings
// count before dedup; the head row is hashed once, and that one
// probe-and-insert is the membership check against the frozen prefix,
// the dedup against everything the round has derived so far, and the
// merge. This is all a derived tuple costs.
func (ev *cEvaluator) derive(row []uint32) error {
	ev.stats.RuleFirings++
	if !ev.head.addHashed(row, hashU32s(row)) {
		return nil
	}
	ev.stats.TuplesDerived++
	if ev.prov != nil {
		fact, step := ev.materialize(ev.tr.pl, ev.tr.binding)
		ev.prov.steps[fact.Key()] = step
	}
	if budget := ev.maxTuples; budget > 0 && ev.stats.TuplesDerived > budget {
		return fmt.Errorf("eval: %w (budget %d)", ErrBudget, budget)
	}
	return nil
}

// materialize converts the live slot binding of a firing back to the
// ground ast rule instance provenance records. Only runs for facts that
// are new.
func (ev *cEvaluator) materialize(pl *plan, snap []uint32) (ast.Atom, provStep) {
	head := ev.groundTpl(pl.head, snap)
	inst := ast.Rule{Head: head}
	for _, tpl := range pl.posTpls {
		inst.Pos = append(inst.Pos, ev.groundTpl(tpl, snap))
	}
	for _, tpl := range pl.negTpls {
		inst.Neg = append(inst.Neg, ev.groundTpl(tpl, snap))
	}
	return head, provStep{rule: inst, body: inst.Pos}
}

func (ev *cEvaluator) groundTpl(tpl atomTpl, snap []uint32) ast.Atom {
	args := make([]ast.Term, len(tpl.vals))
	for j, v := range tpl.vals {
		if tpl.isConst[j] {
			args[j] = ev.in.term(v)
		} else {
			args[j] = ev.in.term(snap[v])
		}
	}
	return ast.Atom{Pred: tpl.pred, Args: args}
}

// Mid-task reorder thresholds: an observation needs a minimum sample
// before it is trusted, and must be more than adaptFactor above the
// exact fan-out its step was expected to have (the ">10x off" rule) to
// trigger.
const (
	adaptMinMatches = 32
	adaptFactor     = 10.0
)

// maybeReorder is the fixpoint's one adaptive step, run between depth-0
// rows (so no deeper join frame is live). It compares each depth's
// observed fan-out — matches[d] per arrival, where arrivals at depth d
// are matches[d-1] — with the exact fan-out of the probe that depth
// makes (fanout). Both sides are exact; what the order could not know is
// that the keys this task meets are not the average key. On a >10x
// excess it orders the tail again, smallest fan-out first with the
// observation standing in for the exact figure, compiles that plan for
// this task alone — never into the plans the evaluation shares — and
// swaps it in (the interner is only read: every rule constant has the
// id the task's own plan was compiled with). The depth-0 subgoal stays
// — its iteration is in progress — and the binding buffer carries over:
// nSlots is order-invariant, and a slot is only read at depths where the
// live plan bound it, the same argument that lets backtracking skip
// undo. At most one reorder per task: the first excess ends the watch.
func (ev *cEvaluator) maybeReorder() {
	tr := &ev.tr
	pl := tr.pl
	var override map[int]float64
	for d := 1; d < len(pl.subs); d++ {
		arrivals, m := tr.matches[d-1], tr.matches[d]
		// Every fan-out is at least 1, so a depth that has not exceeded
		// adaptFactor per arrival cannot trigger and costs no lookup.
		if arrivals == 0 || m < adaptMinMatches || float64(m) <= adaptFactor*float64(arrivals) {
			continue
		}
		sp := &pl.subs[d]
		if ev.est[d] == 0 {
			ev.est[d] = fanout(tr.subs[sp.subIdx], sp.boundPos)
		}
		if float64(m) > adaptFactor*ev.est[d]*float64(arrivals) {
			if override == nil {
				override = map[int]float64{}
			}
			override[sp.subIdx] = float64(m) / float64(arrivals)
		}
	}
	if override == nil {
		return
	}
	tr.matches, tr.between = nil, nil
	r := ev.lay.prog.Rules[pl.ruleIdx]
	start := time.Now()
	if order := tailOrder(r, pl.order[0], tr.subs, override); !intsEqual(order, pl.order) {
		ev.setPlan(compilePlan(ev.in, ev.lay, r, pl.ruleIdx, pl.occ, false, order))
		ev.stats.PlansCompiled++
		ev.stats.AdaptiveReorders++
	}
	ev.stats.PlanNanos += time.Since(start).Nanoseconds()
}

// tailOrder orders the subgoals of r after first greedily by fan-out,
// smallest first (ties to the lowest index), reading each subgoal's
// relation through the view the task reads it through. An observed
// fan-out in override replaces the exact one for a subgoal probed with
// some but not all of its positions bound — a fully bound probe is a
// membership check, which the observation says nothing about.
func tailOrder(r ast.Rule, first int, views []RelView, override map[int]float64) []int {
	n := len(r.Pos)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := map[string]bool{}
	take := func(i int) {
		order = append(order, i)
		used[i] = true
		for _, t := range r.Pos[i].Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}
	take(first)
	for len(order) < n {
		best, bestF := -1, 0.0
		for i, a := range r.Pos {
			if used[i] {
				continue
			}
			var pos []int // kept by the index fanout may build
			for j, t := range a.Args {
				if t.IsConst() || bound[t.Name] {
					pos = append(pos, j)
				}
			}
			f := fanout(views[i], pos)
			if ov, ok := override[i]; ok && len(pos) > 0 && len(pos) < len(a.Args) {
				f = ov
			}
			if best < 0 || f < bestF {
				best, bestF = i, f
			}
		}
		take(best)
	}
	return order
}

// fanout is the exact number of rows a probe of v with the positions pos
// (ascending) bound matches on average: the view's rows over the number
// of distinct keys at those positions — all of its rows when nothing is
// bound, one when everything is. v is a prefix of its relation, and
// frozen: an EDB relation whole or an IDB relation up to the round's
// frozen length. The index on pos may have grown past that length;
// keysBelow counts only the keys first seen below it. Positions past 64
// have no index and count as unbound.
func fanout(v RelView, pos []int) float64 {
	rel := v.Rel.rel()
	rows := float64(v.Hi)
	if len(pos) == 0 || pos[len(pos)-1] >= 64 {
		return rows
	}
	if len(pos) == rel.arity {
		return 1
	}
	var mask uint64
	for _, p := range pos {
		mask |= 1 << uint(p)
	}
	return rows / float64(rel.index(mask, pos).keysBelow(v.Hi))
}

// publicIDB converts every IDB relation back to a public DB.
func (ev *cEvaluator) publicIDB() *DB {
	out := NewDB()
	for k, ir := range ev.idb {
		// The fixpoint is over and only the rows are still needed: let the
		// collector have the dedup set and indexes while the public copy —
		// the evaluation's largest allocation — is being built.
		ir.set, ir.indexes = rowHash{}, nil
		out.rels[ev.lay.preds[k]] = &Relation{Arity: ir.arity, tuples: ev.result(ir.irel).Tuples()}
	}
	return out
}

// result wraps ir's rows as a Result: it shares the row store and the
// evaluation's interner and points at nothing else of either.
func (ev *cEvaluator) result(ir *irel) *Result {
	return &Result{in: ev.in, arity: ir.arity, data: ir.data, n: ir.n}
}

// answers returns the rows of pred's relation that match goal (see
// ast.Program.MatchesGoal; an empty goal matches every row), in
// insertion order; the empty Result when nothing matches or pred is not
// derived. Ids are canonical, so the goal is checked on the interned
// rows, and no row becomes terms unless the caller asks (Result.Tuples).
func (ev *cEvaluator) answers(pred string, goal []ast.Term) *Result {
	k, ok := ev.lay.ids[pred]
	if !ok || k >= ev.lay.nIDB {
		return &Result{}
	}
	ir := ev.idb[k]
	switch {
	case len(goal) == 0:
		return ev.result(ir.irel)
	case len(goal) != ir.arity:
		return &Result{}
	}
	// Position i must hold the id want[i] (a goal constant) or equal
	// position same[i] (the first occurrence of a repeated variable;
	// i itself otherwise).
	want, same := make([]uint32, len(goal)), make([]int, len(goal))
	for i, g := range goal {
		same[i] = i
		if g.IsConst() {
			want[i] = ev.in.intern(g)
			continue
		}
		for j, h := range goal[:i] {
			if h.IsVar() && h.Name == g.Name {
				same[i] = j
				break
			}
		}
	}
	res := &Result{arity: ir.arity}
next:
	for ri := 0; ri < ir.n; ri++ {
		row := ir.row(ri)
		for i, g := range goal {
			if (g.IsConst() && row[i] != want[i]) || row[i] != row[same[i]] {
				continue next
			}
		}
		res.in, res.n, res.data = ev.in, res.n+1, append(res.data, row...)
	}
	return res
}
