package eval

// The evaluation engine: snapshot rounds, per-task output buffers, merge
// strictly in task order, every hot path over interned data — rules
// become plans (plan.go), tuples become flat []uint32 rows (intern.go),
// and the per-candidate binding is a flat slot array instead of a map.
// A derived tuple is paid for once: one hash (carried from the task that
// found it to the merge), one probe-and-insert into its IDB relation's
// dedup set, one row append. The semi-naive delta is not a second copy
// but the window of rows the last merge appended, and rows become terms
// again only when the caller asks: a query's answers leave as a Result
// (result.go) — the matching rows and the interner, nothing else of the
// evaluator — whose Tuples() converts them and whose Ordered() writes
// them out without. Answers, Stats, and
// provenance are identical for every worker count; answers are checked
// against internal/refeval, counters against pinned values and
// provenance by a derivation-tree validator (compiled_test.go).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/shard"
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
	if err := opts.validatePolicy(); err != nil {
		return nil, err
	}
	ev := &cEvaluator{
		ctx:     ctx,
		prog:    p,
		opts:    opts,
		policy:  opts.effectivePolicy(),
		workers: opts.effectiveWorkers(),
		stats:   &Stats{},
		prov:    prov,
	}
	if err := ev.prepare(edb); err != nil {
		return nil, err
	}
	if err := ev.run(); err != nil {
		return nil, err
	}
	// Task scratch must not outlive the fixpoint into the conversion.
	ev.results, ev.runs = nil, nil
	return ev, nil
}

// window is a row range [lo, hi) of an append-only relation.
type window struct{ lo, hi int }

type cEvaluator struct {
	ctx     context.Context
	prog    *ast.Program
	opts    Options
	policy  JoinOrderPolicy
	workers int
	stats   *Stats
	idbPr   map[string]bool
	in      *interner        // private overlay on the base's interner
	edb     map[string]*irel // the DB's interned base: shared, read-only
	idb     map[string]*irel
	// win is the semi-naive delta (nil under naive evaluation): rows
	// win[pred] of ev.idb[pred] are the tuples the previous round's merge
	// appended. The IDB is append-only, so a round's delta is a window
	// on it, not a relation of its own.
	win   map[string]window
	plans map[planKey]*plan
	// Cost/adaptive state (nil under greedy): cur holds the plans the
	// current round runs, re-chosen at every round barrier from live
	// relation statistics; planCache memoizes compiled plans by join
	// order so a recurring order costs one map hit; curEst holds the
	// per-depth match estimates backing the adaptive misestimate check;
	// winEst holds the round's delta-window statistics per predicate.
	// All four are touched only at single-threaded round barriers.
	cur       map[planKey]*plan
	planCache map[planKey]map[string]*plan
	curEst    map[planKey][]float64
	winEst    map[string]relEstimate
	prov      *Provenance
	// Sharding state (zero when Options.Shards < 2): one owner slice per
	// depth-0 relation (EDB base and IDB relations — all live to the end
	// of the run), extended only at single-threaded round barriers and
	// read concurrently by tasks.
	shards int
	part   shard.Partitioner
	owners map[*irel][]uint8
	// Task scratch reused across rounds: one result buffer per task slot
	// and one run state per pool worker (runs[0] serves inline rounds).
	// Touched outside tasks only at single-threaded round barriers.
	results []cTaskResult
	runs    []*cTaskRun
}

// prepare layers a private overlay interner on the database's interned
// base (built here only when edb has none that is current; see base.go)
// and compiles the program's plans against it. With the base in hand
// this is O(rules): no EDB tuple is touched.
func (ev *cEvaluator) prepare(edb *DB) error {
	if s := ev.opts.effectiveShards(); s > 0 {
		ev.shards = s
		ev.part = ev.opts.partitioner()
		ev.owners = map[*irel][]uint8{}
	}
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
	ev.edb = base.rels
	ev.plans = map[planKey]*plan{}
	planStart := time.Now()
	for i, r := range ev.prog.Rules {
		ev.plans[planKey{i, -1}] = compilePlan(ev.in, ev.idbPr, r, i, -1)
		ev.stats.PlansCompiled++
		for occ, a := range r.Pos {
			if ev.idbPr[a.Pred] {
				ev.plans[planKey{i, occ}] = compilePlan(ev.in, ev.idbPr, r, i, occ)
				ev.stats.PlansCompiled++
			}
		}
	}
	ev.stats.PlanNanos += time.Since(planStart).Nanoseconds()
	if ev.policy != PolicyGreedy {
		// The greedy plans above stay the constant-interning pass and
		// the cache seed; the round loop re-chooses orders from live
		// statistics before building each round's tasks.
		ev.cur = map[planKey]*plan{}
		ev.planCache = map[planKey]map[string]*plan{}
		ev.curEst = map[planKey][]float64{}
	}

	ev.idb = make(map[string]*irel, len(ev.idbPr))
	for pred := range ev.idbPr {
		ev.idb[pred] = newIrel(arity[pred], 0)
	}
	return nil
}

// run is the fixpoint loop. Naive evaluation runs every rule over the
// full relations each round. Semi-naive evaluation runs the init rules
// once, then every (rule, IDB occurrence) pair with that occurrence
// restricted to the previous round's delta window. Either way the round
// that derives nothing is the last.
func (ev *cEvaluator) run() error {
	if ev.opts.Seminaive {
		ev.win = make(map[string]window, len(ev.idb))
	}
	var keys []planKey
	var tasks []task
	for round := 0; ; round++ {
		if err := ev.ctx.Err(); err != nil {
			return err
		}
		ev.stats.Iterations++
		keys = keys[:0]
		for i, r := range ev.prog.Rules {
			switch {
			case !ev.opts.Seminaive:
				keys = append(keys, planKey{i, -1})
			case round == 0:
				if r.IsInit(ev.idbPr) {
					keys = append(keys, planKey{i, -1})
				}
			default:
				for occ, a := range r.Pos {
					if ev.idbPr[a.Pred] {
						keys = append(keys, planKey{i, occ})
					}
				}
			}
		}
		before := ev.stats.TuplesDerived
		var rows int
		tasks, rows = ev.buildTasks(tasks[:0], keys)
		if err := ev.runRound(tasks, rows); err != nil {
			return err
		}
		if ev.stats.TuplesDerived == before {
			return nil
		}
	}
}

// planFor resolves the plan a task runs: the current round's
// cost-chosen plan when the policy re-plans, the prepare-time greedy
// plan otherwise.
func (ev *cEvaluator) planFor(ruleIdx, occ int) *plan {
	if ev.cur != nil {
		if pl, ok := ev.cur[planKey{ruleIdx, occ}]; ok {
			return pl
		}
	}
	return ev.plans[planKey{ruleIdx, occ}]
}

// planRound re-chooses this round's join orders from live relation
// statistics (cost/adaptive; greedy returns immediately). Runs at the
// round barrier, before tasks are built, so buildTasks partitions the
// relation the chosen plan actually scans at depth 0. A delta window's
// statistics are a sketch over its rows, built here once per predicate
// and round.
func (ev *cEvaluator) planRound(keys []planKey) {
	if ev.policy == PolicyGreedy {
		return
	}
	start := time.Now()
	ev.winEst = map[string]relEstimate{}
	for _, k := range keys {
		r := ev.prog.Rules[k.ruleIdx]
		if k.occ >= 0 {
			pred := r.Pos[k.occ].Pred
			if _, ok := ev.winEst[pred]; !ok {
				w := ev.win[pred]
				ev.winEst[pred] = windowEstimate(ev.idb[pred], w.lo, w.hi)
			}
		}
		order, ests := costJoinOrder(r, k.occ, ev.estFor(r, k.occ), nil)
		ev.cur[k] = ev.planOrdered(k, r, order)
		ev.curEst[k] = ests
	}
	ev.stats.PlanNanos += time.Since(start).Nanoseconds()
}

// planOrdered returns a compiled plan for the given order, reusing the
// prepare-time greedy plan when the orders coincide and memoizing
// everything else by order signature.
func (ev *cEvaluator) planOrdered(k planKey, r ast.Rule, order []int) *plan {
	if base := ev.plans[k]; intsEqual(base.order, order) {
		return base
	}
	sig := orderSig(order)
	byOrder := ev.planCache[k]
	if byOrder == nil {
		byOrder = map[string]*plan{}
		ev.planCache[k] = byOrder
	}
	pl := byOrder[sig]
	if pl == nil {
		pl = compilePlanOrdered(ev.in, ev.idbPr, r, k.ruleIdx, k.occ, false, order)
		ev.stats.PlansCompiled++
		byOrder[sig] = pl
	}
	return pl
}

// estFor resolves subgoal statistics against the current snapshot
// relations. Safe to call from inside a running task (adaptive
// reorders): rounds only read frozen relations, a sketch that has to
// catch up does so under its relation's lock, and the window estimates
// were all computed by planRound.
func (ev *cEvaluator) estFor(r ast.Rule, occ int) estFunc {
	return func(si int) relEstimate {
		a := r.Pos[si]
		switch {
		case si == occ:
			return ev.winEst[a.Pred]
		case ev.idbPr[a.Pred]:
			return irelEstimate(ev.idb[a.Pred])
		default:
			return irelEstimate(ev.edb[a.Pred])
		}
	}
}

// taskParts is the partition count for depth-0 range splitting. The
// adaptive policy disables partitioning: its decisions are task-local,
// so tasks must be identical for every worker count to keep answers,
// Stats, and provenance worker-invariant.
func (ev *cEvaluator) taskParts() int {
	if ev.policy == PolicyAdaptive {
		return 1
	}
	return ev.workers
}

// subRel resolves the relation a subgoal reads. The delta occurrence
// reads its IDB relation like any other IDB subgoal; what restricts it
// to the delta is the task's depth-0 row range (the delta occurrence is
// always the plan's first subgoal).
func (ev *cEvaluator) subRel(sp *subPlan) *irel {
	if sp.src == srcEDB {
		return ev.edb[sp.pred]
	}
	return ev.idb[sp.pred]
}

// buildTasks plans the round's keys under the active policy and then
// expands them into (possibly partitioned) tasks over the rows of the
// plan's first subgoal in plan order (not necessarily Pos[0]): the whole
// relation, or the delta window. rows is the total of those ranges,
// runRound's measure of how much work the round holds.
func (ev *cEvaluator) buildTasks(tasks []task, keys []planKey) (_ []task, rows int) {
	ev.planRound(keys)
	for _, k := range keys {
		t := task{ruleIdx: k.ruleIdx, occ: k.occ}
		pl := ev.planFor(k.ruleIdx, k.occ)
		var rel *irel
		if len(pl.subs) > 0 {
			sp := &pl.subs[0]
			if rel = ev.subRel(sp); rel != nil {
				t.hi = rel.n
			}
			if w := ev.win[sp.pred]; sp.src == srcDelta {
				t.lo, t.hi = w.lo, w.hi
			}
		}
		rows += t.hi - t.lo
		switch {
		case ev.shards == 0:
			tasks = appendPartitioned(tasks, t, ev.taskParts())
		case len(pl.subs) > 0:
			tasks = appendSharded(tasks, t, ev.ownersFor(rel), ev.shards)
		default:
			tasks = append(tasks, t)
		}
	}
	return tasks, rows
}

// planSeg records, for provenance under adaptive reorders, which plan
// was live from a given head index onward: a head row must be
// materialized with the plan (and slot numbering) that produced its
// binding snapshot.
type planSeg struct {
	fromHead int
	pl       *plan
}

// cTaskResult is the private output buffer of one compiled task: the
// deduplicated head rows (flat, head-arity values each) with the hash
// each was deduplicated under, which the merge inserts it by, and, when
// provenance is on, the slot-binding snapshot per head.
type cTaskResult struct {
	headRows []uint32
	hashes   []uint64 // hashU32s per head
	nHeads   int
	rowIdx   []int32  // sharded tasks: depth-0 row index per head
	snaps    []uint32 // nSlots values per head
	probes   int64
	firings  int64
	// Adaptive-policy accounting, merged into Stats at the barrier.
	skips         int64
	reorders      int64
	plansCompiled int64
	planNanos     int64
	segs          []planSeg // mid-task plan swaps (provenance only)
	err           error
}

// reset empties the buffer for the next task, keeping its capacity.
func (res *cTaskResult) reset() {
	*res = cTaskResult{
		headRows: res.headRows[:0],
		hashes:   res.hashes[:0],
		rowIdx:   res.rowIdx[:0],
		snaps:    res.snaps[:0],
		segs:     res.segs[:0],
	}
}

// scratchKeep bounds the dedup table a run keeps from one task for the
// next, in slots. Reuse exists for the many small rounds of a
// goal-directed query, and emptying a table costs its size: what one
// large task grew is dropped rather than cleared at every small task's
// expense. (Result buffers empty for free; they keep what the largest
// round grew until the fixpoint ends.)
const scratchKeep = 1024

// inlineRoundRows is the round size — total depth-0 rows over the
// round's tasks — below which runRound runs the tasks on the calling
// goroutine. Measured on 40-round chain fixpoints at Workers 2:
// starting and joining the pool costs about 5 µs a round and a depth-0
// row about 0.33 µs of join and merge work, so two workers break even
// near 30 rows; four times that leaves a fanned-out round room to win.
// A goal-directed query's rounds derive a tuple or two each and all
// fall below it.
const inlineRoundRows = 128

// runRound executes the round's tasks on a bounded worker pool (or the
// calling goroutine, for a round too small to pay for one) and merges
// each task's buffered heads into the IDB strictly in task order at the
// barrier; the rows the merge appended are the next round's delta.
// Tasks only read the frozen snapshot, so the merge order alone
// determines tuple insertion order, and where a task runs never changes
// what it computes: answers, Stats and provenance do not depend on the
// choice.
func (ev *cEvaluator) runRound(tasks []task, rows int) error {
	for len(ev.results) < len(tasks) {
		ev.results = append(ev.results, cTaskResult{})
	}
	results := ev.results[:len(tasks)]
	workers := ev.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if rows < inlineRoundRows {
		workers = 1
	}
	for len(ev.runs) < workers {
		ev.runs = append(ev.runs, &cTaskRun{ev: ev})
	}
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(tr *cTaskRun) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					tr.runTask(tasks[i], &results[i])
				}
			}(ev.runs[w])
		}
		wg.Wait()
	} else {
		for i, t := range tasks {
			ev.runs[0].runTask(t, &results[i])
			if results[i].err != nil {
				break
			}
		}
	}

	roundDelta := map[string]int64{}
	for i := 0; i < len(results); {
		if tasks[i].nShards == 0 {
			if err := ev.mergeOne(&results[i], tasks[i], roundDelta); err != nil {
				return err
			}
			i++
			continue
		}
		// A shard group: the nShards tasks of one (rule, occ) unit,
		// merged by depth-0 row index to replay single-task order.
		j := i + 1
		for j < len(results) && tasks[j].nShards > 0 &&
			tasks[j].ruleIdx == tasks[i].ruleIdx && tasks[j].occ == tasks[i].occ {
			j++
		}
		if err := ev.mergeShardGroup(results[i:j], tasks[i:j], roundDelta); err != nil {
			return err
		}
		i = j
	}
	ev.stats.RoundDeltas = append(ev.stats.RoundDeltas, roundDelta)
	// The rows this merge appended become the delta window. Footprint at
	// the round barrier: every IDB tuple plus the rows in the live window
	// (none under naive evaluation).
	peak := int64(0)
	for pred, ir := range ev.idb {
		peak += int64(ir.n)
		if ev.win != nil {
			w := window{ev.win[pred].hi, ir.n}
			ev.win[pred] = w
			peak += int64(w.hi - w.lo)
		}
	}
	if peak > ev.stats.PeakMaterialized {
		ev.stats.PeakMaterialized = peak
	}
	if ev.opts.MaxTuples > 0 && ev.stats.TuplesDerived > ev.opts.MaxTuples {
		return fmt.Errorf("eval: %w (budget %d)", ErrBudget, ev.opts.MaxTuples)
	}
	return nil
}

// absorb adds a task's counters to Stats and reports the task's error.
func (ev *cEvaluator) absorb(res *cTaskResult) error {
	ev.stats.JoinProbes += res.probes
	ev.stats.RuleFirings += res.firings
	ev.stats.AdaptiveSkips += res.skips
	ev.stats.AdaptiveReorders += res.reorders
	ev.stats.PlansCompiled += res.plansCompiled
	ev.stats.PlanNanos += res.planNanos
	return res.err
}

// mergeHead appends head h of res, derived under plan pl, to rel unless
// another derivation put it there first, reporting whether it was new.
// This is all a derived tuple costs the barrier: the insert reuses the
// hash the task computed.
func (ev *cEvaluator) mergeHead(rel *irel, pl *plan, res *cTaskResult, h int, roundDelta map[string]int64) bool {
	if !rel.addHashed(res.headRows[h*rel.arity:(h+1)*rel.arity], res.hashes[h]) {
		return false
	}
	ev.stats.TuplesDerived++
	roundDelta[pl.head.pred]++
	if ev.prov != nil {
		fact, step := ev.materialize(pl, res.snaps[h*pl.nSlots:(h+1)*pl.nSlots])
		ev.prov.steps[fact.Key()] = step
	}
	return true
}

// mergeOne merges one unsharded task result, in the order the task
// derived its heads.
func (ev *cEvaluator) mergeOne(res *cTaskResult, t task, roundDelta map[string]int64) error {
	if err := ev.absorb(res); err != nil {
		return err
	}
	pl := ev.planFor(t.ruleIdx, t.occ)
	idbRel := ev.idb[pl.head.pred]
	// Under adaptive reorders the task may have switched plans
	// mid-run (segs, recorded only with provenance on); pl tracks the
	// plan live for each head index so its snapshot is decoded with the
	// right slot numbering. The snap stride itself is uniform — nSlots
	// is order-invariant.
	segIdx := 0
	idbRel.reserve(res.nHeads)
	for h := 0; h < res.nHeads; h++ {
		for segIdx < len(res.segs) && res.segs[segIdx].fromHead <= h {
			pl = res.segs[segIdx].pl
			segIdx++
		}
		ev.mergeHead(idbRel, pl, res, h, roundDelta)
	}
	return nil
}

// mergeShardGroup is mergeOne's shard-group counterpart: counters are
// summed in task order and heads are k-way merged by the depth-0 row
// index that produced them (see shard.go for why this reconstructs
// single-task order). Adaptive plan swaps cannot occur here — the
// policy is rejected with Options.Shards — so the group shares one
// plan and segs stay empty.
func (ev *cEvaluator) mergeShardGroup(results []cTaskResult, tasks []task, roundDelta map[string]int64) error {
	for i := range results {
		if err := ev.absorb(&results[i]); err != nil {
			return err
		}
	}
	pl := ev.planFor(tasks[0].ruleIdx, tasks[0].occ)
	idbRel := ev.idb[pl.head.pred]
	pos := make([]int, len(results))
	for {
		best := -1
		var bestRow int32
		for k := range results {
			if pos[k] >= results[k].nHeads {
				continue
			}
			if r := results[k].rowIdx[pos[k]]; best < 0 || r < bestRow {
				best, bestRow = k, r
			}
		}
		if best < 0 {
			return nil
		}
		h := pos[best]
		pos[best]++
		if !ev.mergeHead(idbRel, pl, &results[best], h, roundDelta) {
			continue // a lower-rowIdx derivation merged it first
		}
		key := ""
		if idbRel.arity > 0 {
			key = ev.in.termKey(results[best].headRows[h*idbRel.arity])
		}
		if ev.part.Shard(key, ev.shards) != tasks[best].shard {
			ev.stats.ShardExchanged++
		}
	}
}

// materialize converts a head row's slot snapshot back to the ground
// ast rule instance provenance records. Only runs at the merge for
// facts that are new.
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

// cTaskRun is the evaluation state of one task at a time: the relation
// each join depth reads and the one the head goes to (resolved once per
// task, so a join frame does no map lookup), a flat slot binding, the
// task's output buffer with its dedup set, and probe/negation scratch
// buffers. A run is owned by one pool worker and
// re-pointed at task after task, round after round, so neither a task
// nor a candidate tuple allocates once the buffers have grown.
type cTaskRun struct {
	ev      *cEvaluator
	pl      *plan
	rels    []*irel // per join depth
	headRel *irel
	lo, hi  int // depth-0 row range
	// Sharded-task state: only depth-0 rows owned by shard are probed,
	// and cur records the live depth-0 row index for the barrier's k-way
	// merge.
	sharded   bool
	shard     uint8
	owners    []uint8
	cur       int32
	binding   []uint32
	probeBufs [][]uint32 // per-depth bound-value scratch
	negBuf    []uint32
	headBuf   []uint32
	seen      rowHash // dedups headRows within this task
	res       *cTaskResult
	base      int64
	// Adaptive-policy state (nil matches/est under other policies):
	// per-depth match counters and the planner's per-depth estimates,
	// compared between depth-0 rows by maybeReorder.
	est       []float64
	matches   []int64
	reordered bool
}

// runTask points the run at task t and evaluates it into res.
func (tr *cTaskRun) runTask(t task, res *cTaskResult) {
	ev := tr.ev
	res.reset()
	pl := ev.planFor(t.ruleIdx, t.occ)
	tr.setPlan(pl)
	if ev.policy == PolicyAdaptive {
		// Early exit on empty intermediates: a rule with any empty
		// positive subgoal (or delta window) cannot fire, whatever the
		// join order.
		for d, rel := range tr.rels {
			if rel == nil || rel.n == 0 || (d == 0 && t.lo == t.hi) {
				res.skips = 1
				return
			}
		}
	}
	tr.res, tr.headRel = res, ev.idb[pl.head.pred]
	tr.lo, tr.hi = t.lo, t.hi
	tr.sharded, tr.shard, tr.owners = t.nShards > 0, uint8(t.shard), t.owners
	tr.base = ev.stats.TuplesDerived
	tr.est, tr.matches, tr.reordered = nil, nil, false
	if ev.policy == PolicyAdaptive && len(pl.subs) > 1 {
		tr.est = ev.curEst[planKey{t.ruleIdx, t.occ}]
		tr.matches = make([]int64, len(pl.subs))
	}
	// Stale values in reused buffers are never observable: a slot or
	// scratch cell is only read after the live plan wrote it.
	tr.binding = sizedU32(tr.binding, pl.nSlots)
	tr.negBuf = sizedU32(tr.negBuf, pl.maxNegArity)
	ha := len(pl.head.isConst)
	tr.headBuf = sizedU32(tr.headBuf, ha)
	tr.seen.reset(&res.headRows, ha)
	if err := tr.join(0); err != nil {
		res.err = err
	}
	if len(tr.seen.slots) > scratchKeep {
		tr.seen.slots = nil
	}
}

// setPlan makes pl the live plan: it resolves the relation each join
// depth reads and sizes the per-depth probe buffers.
func (tr *cTaskRun) setPlan(pl *plan) {
	tr.pl, tr.rels = pl, tr.rels[:0]
	for i := range pl.subs {
		tr.rels = append(tr.rels, tr.ev.subRel(&pl.subs[i]))
	}
	tr.probeBufs = sizedProbeBufs(tr.probeBufs, pl)
}

// sizedU32 returns buf resized to n values, reallocating only to grow.
func sizedU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// sizedProbeBufs resizes the per-depth bound-value buffers for pl.
func sizedProbeBufs(bufs [][]uint32, pl *plan) [][]uint32 {
	for len(bufs) < len(pl.subs) {
		bufs = append(bufs, nil)
	}
	bufs = bufs[:len(pl.subs)]
	for i := range pl.subs {
		bufs[i] = sizedU32(bufs[i], len(pl.subs[i].boundPos))
	}
	return bufs
}

// join extends the slot binding over the plan's subgoals starting
// at the given join depth.
func (tr *cTaskRun) join(depth int) error {
	ev := tr.ev
	if ev.opts.MaxTuples > 0 && tr.base+int64(tr.res.nHeads) > ev.opts.MaxTuples {
		return fmt.Errorf("eval: %w (budget %d)", ErrBudget, ev.opts.MaxTuples)
	}
	pl := tr.pl
	if depth == len(pl.subs) {
		return tr.finish()
	}
	sp := &pl.subs[depth]
	rel := tr.rels[depth]
	if rel == nil || rel.n == 0 {
		return nil
	}
	lo, hi := 0, rel.n
	if depth == 0 {
		lo, hi = tr.lo, tr.hi
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
	if bound && sp.src != srcDelta {
		ix := rel.index(sp.mask, sp.boundPos)
		// An empty lookup is a successful (and final) answer; never
		// fall back to a scan.
		for ri := ix.lookup(rel, vals); ri >= 0; ri = ix.next[ri] {
			if int(ri) < lo || int(ri) >= hi {
				continue
			}
			if depth == 0 && tr.sharded {
				if tr.owners[ri] != tr.shard {
					continue
				}
				tr.cur = ri
			}
			if err := tr.tryRow(depth, rel.row(int(ri)), false); err != nil {
				return err
			}
			if depth == 0 && tr.matches != nil {
				tr.maybeReorder()
			}
		}
		return nil
	}
	// A scan of rows [lo, hi). For a delta atom that binds positions (it
	// carries constants) the relation's index would chain through every
	// round's rows, so its window is walked instead: rows that do not
	// match are skipped without being counted, which tries exactly the
	// rows, in the ascending order, an index over the window would chain.
	for i := lo; i < hi; i++ {
		if depth == 0 && tr.sharded {
			if tr.owners[i] != tr.shard {
				continue
			}
			tr.cur = int32(i)
		}
		row := rel.row(i)
		if bound && !projEqual(row, sp.boundPos, vals) {
			continue
		}
		if err := tr.tryRow(depth, row, !bound); err != nil {
			return err
		}
		if depth == 0 && tr.matches != nil {
			tr.maybeReorder()
		}
	}
	return nil
}

// Adaptive mid-task reorder thresholds: an observation needs a minimum
// sample before it is trusted, and must be more than adaptFactor above
// the planner's estimate (the issue's ">10x off" rule) to trigger.
const (
	adaptMinMatches = 32
	adaptFactor     = 10.0
)

// maybeReorder is the adaptive policy's checkpoint, run between
// depth-0 rows (so no deeper join frame is live). It compares each
// depth's observed fan-out — matches[d] per arrival, where arrivals at
// depth d are matches[d-1] — against the plan estimate; on a >10x
// misestimate it recomputes the tail order with the observation fed
// back, compiles the new plan task-privately (the interner is only
// read: every rule constant was interned in prepare), and swaps it in.
// The depth-0 subgoal is pinned — its iteration is in progress — and
// the binding buffer carries over: nSlots is order-invariant, and a
// slot is only read at depths where the live plan bound it, the same
// argument that lets backtracking skip undo. At most one reorder per
// task, and every input is task-local and content-deterministic, so
// results stay identical for every worker count.
func (tr *cTaskRun) maybeReorder() {
	if tr.reordered {
		return
	}
	pl := tr.pl
	var override map[int]float64
	for d := 1; d < len(pl.subs); d++ {
		arrivals := tr.matches[d-1]
		if arrivals == 0 || tr.matches[d] < adaptMinMatches {
			continue
		}
		est := tr.est[d]
		if est < 1 {
			est = 1
		}
		if float64(tr.matches[d]) > adaptFactor*est*float64(arrivals) {
			if override == nil {
				override = map[int]float64{}
			}
			override[pl.subs[d].subIdx] = float64(tr.matches[d]) / float64(arrivals)
		}
	}
	if override == nil {
		return
	}
	tr.reordered = true // one reorder per task, even if the order stands
	ev := tr.ev
	r := ev.prog.Rules[pl.ruleIdx]
	start := time.Now()
	order, ests := costJoinOrder(r, pl.order[0], ev.estFor(r, pl.occ), override)
	if intsEqual(order, pl.order) {
		tr.res.planNanos += time.Since(start).Nanoseconds()
		return
	}
	npl := compilePlanOrdered(ev.in, ev.idbPr, r, pl.ruleIdx, pl.occ, false, order)
	tr.res.planNanos += time.Since(start).Nanoseconds()
	tr.res.plansCompiled++
	tr.res.reorders++
	if ev.prov != nil {
		tr.res.segs = append(tr.res.segs, planSeg{fromHead: tr.res.nHeads, pl: npl})
	}
	tr.setPlan(npl)
	tr.est = ests
	for d := range tr.matches {
		tr.matches[d] = 0
	}
}

// tryRow tries one candidate row at one depth.
// verify is true on the scan path, where bound positions must be
// re-checked; index candidates match them by construction (the index
// compares values exactly, so collisions never reach here).
func (tr *cTaskRun) tryRow(depth int, row []uint32, verify bool) error {
	tr.res.probes++
	if tr.res.probes&cancelPollMask == 0 {
		if err := tr.ev.ctx.Err(); err != nil {
			return err
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
// ids is id equality; the four order operators delegate to Term.Compare
// on the resolved terms.
func (tr *cTaskRun) evalCmp(c *cmpPlan) bool {
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
	return ast.NewCmp(tr.ev.in.term(l), c.op, tr.ev.in.term(r)).Eval()
}

// negContains reports whether the ground instance of a negated subgoal
// is present in the EDB (negation ranges over EDB relations only).
func (tr *cTaskRun) negContains(tpl *atomTpl) bool {
	rel := tr.ev.edb[tpl.pred]
	if rel == nil {
		return false
	}
	buf := tr.negBuf[:len(tpl.isConst)]
	for j, c := range tpl.isConst {
		if c {
			buf[j] = tpl.vals[j]
		} else {
			buf[j] = tr.binding[tpl.vals[j]]
		}
	}
	return rel.contains(buf)
}

// finish emits the head row for a complete binding: firings count
// before dedup, then per-task dedup plus a snapshot-IDB membership
// check (cross-task duplicates within a round are resolved at the
// merge). The row is hashed once, here, for all three.
func (tr *cTaskRun) finish() error {
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
	tr.res.firings++
	row := tr.headBuf
	for j, c := range pl.head.isConst {
		if c {
			row[j] = pl.head.vals[j]
		} else {
			row[j] = tr.binding[pl.head.vals[j]]
		}
	}
	hv := hashU32s(row)
	slot, found := tr.seen.insertLookup(row, hv)
	if found || tr.headRel.containsHashed(row, hv) {
		return nil
	}
	idx := int32(tr.res.nHeads)
	tr.res.headRows = append(grown(tr.res.headRows, len(row)), row...)
	tr.res.hashes = append(grown(tr.res.hashes, 1), hv)
	tr.res.nHeads++
	tr.seen.place(slot, hv, idx)
	if tr.sharded {
		tr.res.rowIdx = append(tr.res.rowIdx, tr.cur)
	}
	if tr.ev.prov != nil {
		tr.res.snaps = append(tr.res.snaps, tr.binding...)
	}
	return nil
}

// publicIDB converts every IDB relation back to a public DB.
func (ev *cEvaluator) publicIDB() *DB {
	out := NewDB()
	for pred, ir := range ev.idb {
		// The fixpoint is over and only the rows are still needed: let the
		// collector have the dedup set and indexes while the public copy —
		// the evaluation's largest allocation — is being built.
		ir.set, ir.indexes = rowHash{}, nil
		out.rels[pred] = &Relation{Arity: ir.arity, tuples: ev.result(ir).Tuples()}
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
		return ev.result(ir)
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
