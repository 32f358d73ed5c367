package eval

// The evaluation engine: snapshot rounds, per-task output buffers, merge
// strictly in task order, every hot path over interned data — rules
// become plans (plan.go), tuples become flat []uint32 rows (intern.go),
// and the per-candidate binding is a flat slot array instead of a map.
// Answers, Stats, and provenance are identical for every worker count;
// answers are checked against internal/refeval, counters against pinned
// values and provenance by a derivation-tree validator (compiled_test.go).

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/shard"
)

// evalCompiled evaluates p over edb, recording provenance steps into
// prov when non-nil. The caller has already validated p.
func evalCompiled(ctx context.Context, p *ast.Program, edb *DB, opts Options, prov *Provenance) (*DB, *Stats, error) {
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
		return nil, nil, err
	}
	if err := ev.run(); err != nil {
		return nil, nil, err
	}
	return ev.publicIDB(), ev.stats, nil
}

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
	delta   map[string]*irel // tuples new in the previous round (semi-naive)
	plans   map[planKey]*plan
	// Cost/adaptive state (nil under greedy): cur holds the plans the
	// current round runs, re-chosen at every round barrier from live
	// relation statistics; planCache memoizes compiled plans by join
	// order so a recurring order costs one map hit; curEst holds the
	// per-depth match estimates backing the adaptive misestimate check.
	// All three are touched only at single-threaded round barriers.
	cur       map[planKey]*plan
	planCache map[planKey]map[string]*plan
	curEst    map[planKey][]float64
	prov      *Provenance
	// Sharding state (zero when Options.Shards < 2): owner slices are
	// extended only at single-threaded round barriers and read
	// concurrently by tasks.
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

func (ev *cEvaluator) run() error {
	if ev.opts.Seminaive {
		return ev.runSeminaive()
	}
	return ev.runNaive()
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
// relation the chosen plan actually scans at depth 0.
func (ev *cEvaluator) planRound(keys []planKey, prevDelta map[string]*irel) {
	if ev.policy == PolicyGreedy {
		return
	}
	start := time.Now()
	for _, k := range keys {
		r := ev.prog.Rules[k.ruleIdx]
		order, ests := costJoinOrder(r, k.occ, ev.estFor(r, k.occ, prevDelta), nil)
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
// reorders): rounds only read frozen relations, and the sketches are
// written solely at the merge barrier.
func (ev *cEvaluator) estFor(r ast.Rule, occ int, prevDelta map[string]*irel) estFunc {
	return func(si int) relEstimate {
		a := r.Pos[si]
		var rel *irel
		switch {
		case si == occ:
			rel = prevDelta[a.Pred]
		case ev.idbPr[a.Pred]:
			rel = ev.idb[a.Pred]
		default:
			rel = ev.edb[a.Pred]
		}
		return irelEstimate(rel)
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

// firstRel is the relation a task scans at depth 0 — the plan's first
// subgoal in plan order (which partition ranges and shard owners apply
// to), not necessarily Pos[0] — or nil for a rule without subgoals.
func (ev *cEvaluator) firstRel(k planKey, prevDelta map[string]*irel) *irel {
	pl := ev.planFor(k.ruleIdx, k.occ)
	if len(pl.subs) == 0 {
		return nil
	}
	return ev.subRel(&pl.subs[0], prevDelta)
}

func (ev *cEvaluator) subRel(sp *subPlan, prevDelta map[string]*irel) *irel {
	switch sp.src {
	case srcDelta:
		return prevDelta[sp.pred]
	case srcIDB:
		return ev.idb[sp.pred]
	default:
		return ev.edb[sp.pred]
	}
}

func (ev *cEvaluator) newDelta() map[string]*irel {
	d := make(map[string]*irel, len(ev.idb))
	for pred, ir := range ev.idb {
		d[pred] = newIrel(ir.arity, 0)
	}
	return d
}

func deltaTotal(d map[string]*irel) int {
	n := 0
	for _, ir := range d {
		n += ir.n
	}
	return n
}

// buildTasks plans the round's keys under the active policy and then
// expands them into (possibly partitioned) tasks. rows is the total
// size of the tasks' depth-0 relations, runRound's measure of how much
// work the round holds.
func (ev *cEvaluator) buildTasks(tasks []task, keys []planKey, prevDelta map[string]*irel) (_ []task, rows int) {
	ev.planRound(keys, prevDelta)
	for _, k := range keys {
		t := task{ruleIdx: k.ruleIdx, occ: k.occ}
		rel := ev.firstRel(k, prevDelta)
		n := 0
		if rel != nil {
			n = rel.n
		}
		rows += n
		switch {
		case ev.shards == 0:
			tasks = appendPartitioned(tasks, t, n, ev.taskParts())
		case len(ev.planFor(k.ruleIdx, k.occ).subs) > 0:
			tasks = appendSharded(tasks, t, ev.ownersFor(rel), ev.shards)
		default:
			tasks = append(tasks, t)
		}
	}
	return tasks, rows
}

func (ev *cEvaluator) runNaive() error {
	for {
		if err := ev.ctx.Err(); err != nil {
			return err
		}
		ev.stats.Iterations++
		before := ev.stats.TuplesDerived
		keys := make([]planKey, 0, len(ev.prog.Rules))
		for i := range ev.prog.Rules {
			keys = append(keys, planKey{i, -1})
		}
		tasks, rows := ev.buildTasks(nil, keys, nil)
		if err := ev.runRound(tasks, rows, nil); err != nil {
			return err
		}
		if ev.stats.TuplesDerived == before {
			return nil
		}
	}
}

func (ev *cEvaluator) runSeminaive() error {
	ev.delta = ev.newDelta()
	if err := ev.ctx.Err(); err != nil {
		return err
	}
	ev.stats.Iterations++
	var keys []planKey
	for i, r := range ev.prog.Rules {
		if !r.IsInit(ev.idbPr) {
			continue
		}
		keys = append(keys, planKey{i, -1})
	}
	tasks, rows := ev.buildTasks(nil, keys, nil)
	if err := ev.runRound(tasks, rows, nil); err != nil {
		return err
	}
	for {
		if deltaTotal(ev.delta) == 0 {
			return nil
		}
		if err := ev.ctx.Err(); err != nil {
			return err
		}
		prevDelta := ev.delta
		ev.delta = ev.newDelta()
		ev.stats.Iterations++
		keys = keys[:0]
		for i, r := range ev.prog.Rules {
			for occ, a := range r.Pos {
				if !ev.idbPr[a.Pred] {
					continue
				}
				keys = append(keys, planKey{i, occ})
			}
		}
		tasks, rows = ev.buildTasks(tasks[:0], keys, prevDelta)
		if err := ev.runRound(tasks, rows, prevDelta); err != nil {
			return err
		}
	}
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
// deduplicated head rows (flat, head-arity values each) and, when
// provenance is on, the slot-binding snapshot per head.
type cTaskResult struct {
	headRows []uint32
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
		rowIdx:   res.rowIdx[:0],
		snaps:    res.snaps[:0],
		segs:     res.segs[:0],
	}
}

// scratchKeep bounds the task scratch kept for reuse, in values (head
// ids, snapshot ids, dedup slots). Reuse exists for the many small
// rounds of a goal-directed query; what one large task grew is released
// as soon as its contents are consumed, so it is neither live through
// later rounds and the result conversion nor cleared at a small task's
// expense.
const scratchKeep = 1024

// trim releases the buffers a large task grew, once merged.
func (res *cTaskResult) trim() {
	if cap(res.headRows) > scratchKeep {
		res.headRows, res.rowIdx = nil, nil
	}
	if cap(res.snaps) > scratchKeep {
		res.snaps = nil
	}
}

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
// each task's buffered heads into the IDB (and current delta) strictly
// in task order at the barrier. Tasks only read the frozen snapshot, so
// the merge order alone determines tuple insertion order, and where a
// task runs never changes what it computes: answers, Stats and
// provenance do not depend on the choice.
func (ev *cEvaluator) runRound(tasks []task, rows int, prevDelta map[string]*irel) error {
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
					tr.runTask(tasks[i], prevDelta, &results[i])
				}
			}(ev.runs[w])
		}
		wg.Wait()
	} else {
		for i, t := range tasks {
			ev.runs[0].runTask(t, prevDelta, &results[i])
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
	for i := range results {
		results[i].trim()
	}
	ev.stats.RoundDeltas = append(ev.stats.RoundDeltas, roundDelta)
	// Footprint at the round barrier: every IDB tuple plus the
	// semi-naive delta copy (deltaTotal tolerates the nil delta of naive
	// and init rounds).
	peak := int64(0)
	for _, ir := range ev.idb {
		peak += int64(ir.n)
	}
	peak += int64(deltaTotal(ev.delta))
	if peak > ev.stats.PeakMaterialized {
		ev.stats.PeakMaterialized = peak
	}
	if ev.opts.MaxTuples > 0 && ev.stats.TuplesDerived > ev.opts.MaxTuples {
		return fmt.Errorf("eval: %w (budget %d)", ErrBudget, ev.opts.MaxTuples)
	}
	return nil
}

// mergeOne merges one unsharded task result, in the order the task
// derived its heads.
func (ev *cEvaluator) mergeOne(res *cTaskResult, t task, roundDelta map[string]int64) error {
	if res.err != nil {
		return res.err
	}
	ev.stats.JoinProbes += res.probes
	ev.stats.RuleFirings += res.firings
	ev.stats.AdaptiveSkips += res.skips
	ev.stats.AdaptiveReorders += res.reorders
	ev.stats.PlansCompiled += res.plansCompiled
	ev.stats.PlanNanos += res.planNanos
	pl := ev.planFor(t.ruleIdx, t.occ)
	ha := len(pl.head.isConst)
	idbRel := ev.idb[pl.head.pred]
	// Under adaptive reorders the task may have switched plans
	// mid-run; provPl tracks the plan live for each head index so
	// its snapshot is decoded with the right slot numbering. The
	// snap stride itself is uniform — nSlots is order-invariant.
	provPl, segIdx := pl, 0
	for h := 0; h < res.nHeads; h++ {
		row := res.headRows[h*ha : (h+1)*ha]
		if !idbRel.add(row) {
			continue // another task derived it first this round
		}
		ev.stats.TuplesDerived++
		roundDelta[pl.head.pred]++
		if ev.delta != nil {
			ev.delta[pl.head.pred].add(row)
		}
		if ev.prov != nil {
			for segIdx < len(res.segs) && res.segs[segIdx].fromHead <= h {
				provPl = res.segs[segIdx].pl
				segIdx++
			}
			snap := res.snaps[h*provPl.nSlots : (h+1)*provPl.nSlots]
			fact, step := ev.materialize(provPl, snap)
			ev.prov.steps[fact.Key()] = step
		}
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
		res := &results[i]
		if res.err != nil {
			return res.err
		}
		ev.stats.JoinProbes += res.probes
		ev.stats.RuleFirings += res.firings
		ev.stats.AdaptiveSkips += res.skips
		ev.stats.AdaptiveReorders += res.reorders
		ev.stats.PlansCompiled += res.plansCompiled
		ev.stats.PlanNanos += res.planNanos
	}
	pl := ev.planFor(tasks[0].ruleIdx, tasks[0].occ)
	ha := len(pl.head.isConst)
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
		res := &results[best]
		h := pos[best]
		pos[best]++
		row := res.headRows[h*ha : (h+1)*ha]
		if !idbRel.add(row) {
			continue // a lower-rowIdx derivation merged it first
		}
		ev.stats.TuplesDerived++
		roundDelta[pl.head.pred]++
		if ev.delta != nil {
			ev.delta[pl.head.pred].add(row)
		}
		if ev.prov != nil {
			snap := res.snaps[h*pl.nSlots : (h+1)*pl.nSlots]
			fact, step := ev.materialize(pl, snap)
			ev.prov.steps[fact.Key()] = step
		}
		key := ""
		if ha > 0 {
			key = ev.in.termKey(row[0])
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

// cTaskRun is the evaluation state of one task at a time: a flat slot
// binding, the task's output buffer with its dedup set, and probe/
// negation scratch buffers. A run is owned by one pool worker and
// re-pointed at task after task, round after round, so neither a task
// nor a candidate tuple allocates once the buffers have grown.
type cTaskRun struct {
	ev     *cEvaluator
	pl     *plan
	delta  map[string]*irel
	lo, hi int
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
func (tr *cTaskRun) runTask(t task, prevDelta map[string]*irel, res *cTaskResult) {
	ev := tr.ev
	res.reset()
	pl := ev.planFor(t.ruleIdx, t.occ)
	if ev.policy == PolicyAdaptive {
		// Early exit on empty intermediates: a rule with any empty
		// positive subgoal cannot fire, whatever the join order.
		for i := range pl.subs {
			if rel := ev.subRel(&pl.subs[i], prevDelta); rel == nil || rel.n == 0 {
				res.skips = 1
				return
			}
		}
	}
	tr.pl, tr.delta, tr.res = pl, prevDelta, res
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
	tr.probeBufs = sizedProbeBufs(tr.probeBufs, pl)
	tr.negBuf = sizedU32(tr.negBuf, pl.maxNegArity)
	ha := len(pl.head.isConst)
	tr.headBuf = sizedU32(tr.headBuf, ha)
	tr.seen.reset(&res.headRows, ha)
	if err := tr.join(0); err != nil {
		res.err = err
	}
	if len(tr.seen.idxs) > scratchKeep {
		tr.seen.hashes, tr.seen.idxs = nil, nil
	}
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
	rel := ev.subRel(sp, tr.delta)
	if rel == nil || rel.n == 0 {
		return nil
	}
	lo, hi := 0, rel.n
	if depth == 0 && tr.hi > 0 {
		lo, hi = tr.lo, tr.hi
		if hi > rel.n {
			hi = rel.n
		}
	}
	if sp.indexable && len(sp.boundPos) > 0 {
		vals := tr.probeBufs[depth]
		for k, c := range sp.boundConst {
			if c {
				vals[k] = sp.boundVal[k]
			} else {
				vals[k] = tr.binding[sp.boundVal[k]]
			}
		}
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
	for i := lo; i < hi; i++ {
		if depth == 0 && tr.sharded {
			if tr.owners[i] != tr.shard {
				continue
			}
			tr.cur = int32(i)
		}
		if err := tr.tryRow(depth, rel.row(i), true); err != nil {
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
	order, ests := costJoinOrder(r, pl.order[0], ev.estFor(r, pl.occ, tr.delta), override)
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
	tr.pl = npl
	tr.est = ests
	for d := range tr.matches {
		tr.matches[d] = 0
	}
	tr.probeBufs = sizedProbeBufs(tr.probeBufs, npl)
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
// merge).
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
	slot, hv, found := tr.seen.insertLookup(row)
	if found {
		return nil
	}
	if rel := tr.ev.idb[pl.head.pred]; rel != nil && rel.contains(row) {
		return nil
	}
	idx := int32(tr.res.nHeads)
	tr.res.headRows = append(tr.res.headRows, row...)
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

// publicIDB converts the interned IDB back to a public DB. Rows are
// already deduplicated, so tuples and seen keys are written directly;
// the keys reuse each distinct term's rendered Term.Key, making the
// conversion linear with small constants.
func (ev *cEvaluator) publicIDB() *DB {
	out := NewDB()
	var b strings.Builder
	for pred, ir := range ev.idb {
		// The fixpoint is over and only the rows are still needed: let
		// the collector have the dedup set and indexes while the public
		// copy — the evaluation's largest allocation — is being built.
		ir.set, ir.indexes = rowHash{}, nil
		rel := &Relation{Arity: ir.arity, seen: make(map[string]bool, ir.n)}
		rel.tuples = make([]Tuple, 0, ir.n)
		for i := 0; i < ir.n; i++ {
			row := ir.row(i)
			t := make(Tuple, ir.arity)
			for j, id := range row {
				t[j] = ev.in.term(id)
			}
			rel.seen[ev.in.rowKey(&b, row)] = true
			rel.tuples = append(rel.tuples, t)
		}
		out.rels[pred] = rel
	}
	return out
}
