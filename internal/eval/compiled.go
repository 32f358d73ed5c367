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
// the caller asked for.
func evalCompiled(ctx context.Context, p *ast.Program, edb *DB, opts Options, prov *Provenance) (*cEvaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.validateModes(); err != nil {
		return nil, err
	}
	ev := &cEvaluator{
		ctx:       ctx,
		prog:      p,
		maxTuples: opts.MaxTuples,
		stats:     &Stats{},
		prov:      prov,
	}
	if err := ev.prepare(edb); err != nil {
		return nil, err
	}
	if err := ev.run(); err != nil {
		return nil, err
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
	prog      *ast.Program
	maxTuples int64 // Options.MaxTuples
	stats     *Stats
	idbPr     map[string]bool
	in        *interner // a private overlay on the base's, or the DeltaProgram's
	// edb is every EDB relation the program reads, as the whole fixpoint
	// reads it: the DB's interned base whole, or the caller's relations
	// as they were when DeltaProgram.Fixpoint was called.
	edb   map[string]RelView
	idb   map[string]*idbRel
	plans map[planKey]*plan
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

// prepare layers a private overlay interner on the database's interned
// base (built here only when edb has none that is current; see base.go)
// and compiles the program's plans against it. With the base in hand
// this is O(rules): no EDB tuple is touched.
func (ev *cEvaluator) prepare(edb *DB) error {
	ev.idbPr = ev.prog.IDB()
	arity, err := ev.prog.PredArity()
	if err != nil {
		return err
	}
	base, built := edb.interned()
	if built {
		ev.stats.EDBRowsInterned = int64(base.rows)
	}
	ev.in = base.in.overlay()
	ev.edb = make(map[string]RelView, len(arity)-len(ev.idbPr))
	ev.idb = make(map[string]*idbRel, len(ev.idbPr))
	for pred, n := range arity {
		if ev.idbPr[pred] {
			ev.idb[pred] = &idbRel{irel: newIrel(n, 0)}
		} else {
			ev.edb[pred] = base.rels[pred].whole()
		}
	}
	ev.plans = map[planKey]*plan{}
	planStart := time.Now()
	compile := func(i, occ int) {
		r := ev.prog.Rules[i]
		order := joinOrder(r, occ, false, ev.idbPr, ev.edbLen)
		ev.plans[planKey{i, occ}] = compilePlan(ev.in, ev.idbPr, r, i, occ, false, order)
		ev.stats.PlansCompiled++
	}
	for i, r := range ev.prog.Rules {
		compile(i, -1)
		for occ, a := range r.Pos {
			if ev.idbPr[a.Pred] {
				compile(i, occ)
			}
		}
	}
	ev.stats.PlanNanos += time.Since(planStart).Nanoseconds()
	return nil
}

// run is the fixpoint loop: the init rules once, then every (rule, IDB
// occurrence) pair with that occurrence restricted to the previous
// round's delta window, until a round derives nothing.
func (ev *cEvaluator) run() error {
	ev.tr = joinRun{ctx: ev.ctx, in: ev.in, negs: ev.negView, emit: ev.derive}
	ev.reorder = ev.maybeReorder
	defer func() {
		// Join scratch must not outlive the fixpoint into the conversion,
		// nor the reorder callback, which points back at ev.
		ev.stats.JoinProbes = ev.tr.probes
		ev.tr, ev.reorder = joinRun{}, nil
	}()
	var keys []planKey
	for round := 0; ; round++ {
		if err := ev.ctx.Err(); err != nil {
			return err
		}
		ev.stats.Iterations++
		keys = keys[:0]
		for i, r := range ev.prog.Rules {
			if round == 0 {
				if r.IsInit(ev.idbPr) {
					keys = append(keys, planKey{i, -1})
				}
				continue
			}
			for occ, a := range r.Pos {
				if ev.idbPr[a.Pred] {
					keys = append(keys, planKey{i, occ})
				}
			}
		}
		before := ev.stats.TuplesDerived
		if err := ev.runRound(keys); err != nil {
			return err
		}
		if ev.stats.TuplesDerived == before {
			return nil
		}
	}
}

// edbLen is the number of rows the fixpoint reads of an EDB predicate
// (0 for one it has no relation for): the exact count join orders break
// ties with.
func (ev *cEvaluator) edbLen(pred string) int { return ev.edb[pred].Len() }

// runRound runs the round's tasks one after another, each appending what
// it derives to its head relation, and then moves every relation's marks
// up: the rows this round appended are the next round's delta window.
func (ev *cEvaluator) runRound(keys []planKey) error {
	roundDelta := map[string]int64{}
	for _, k := range keys {
		before := ev.stats.TuplesDerived
		err := ev.runTask(k)
		if d := ev.stats.TuplesDerived - before; d > 0 {
			roundDelta[ev.tr.pl.head.pred] += d
		}
		if err != nil {
			return err
		}
	}
	ev.stats.RoundDeltas = append(ev.stats.RoundDeltas, roundDelta)
	// Footprint at the round barrier: every IDB tuple plus the rows in the
	// new delta window.
	peak := int64(0)
	for _, ir := range ev.idb {
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
func (ev *cEvaluator) runTask(k planKey) error {
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
	ev.head = ev.idb[tr.pl.head.pred].irel
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
			v = ev.edb[sp.pred]
		} else {
			ir := ev.idb[sp.pred]
			v = RelView{Rel: (*IRel)(ir.irel), Hi: ir.hi, live: ir.hi}
			if sp.src == srcDelta {
				v.Lo = ir.lo
			}
		}
		tr.subs[sp.subIdx] = v
	}
}

// negView resolves a negated subgoal: negation ranges over EDB
// relations only.
func (ev *cEvaluator) negView(pred string) RelView { return ev.edb[pred] }

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
// observation standing in for the exact figure, compiles that plan (the
// interner is only read: every rule constant was interned in prepare)
// and swaps it in. The depth-0 subgoal stays — its iteration is in
// progress — and the binding buffer carries over: nSlots is
// order-invariant, and a slot is only read at depths where the live plan
// bound it, the same argument that lets backtracking skip undo. At most
// one reorder per task: the first excess ends the watch.
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
	r := ev.prog.Rules[pl.ruleIdx]
	start := time.Now()
	if order := tailOrder(r, pl.order[0], tr.subs, override); !intsEqual(order, pl.order) {
		ev.setPlan(compilePlan(ev.in, ev.idbPr, r, pl.ruleIdx, pl.occ, false, order))
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
	for pred, ir := range ev.idb {
		// The fixpoint is over and only the rows are still needed: let the
		// collector have the dedup set and indexes while the public copy —
		// the evaluation's largest allocation — is being built.
		ir.set, ir.indexes = rowHash{}, nil
		out.rels[pred] = &Relation{Arity: ir.arity, tuples: ev.result(ir.irel).Tuples()}
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
	ir := ev.idb[pred]
	switch {
	case ir == nil:
		return &Result{}
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
