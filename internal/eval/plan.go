package eval

// Compiled rule plans. A plan fixes everything an interpreter would
// re-derive per candidate tuple: the join order, each subgoal's bound
// argument positions (with constants pre-interned), variable →
// binding-slot assignments, the earliest join depth at which every
// comparison and negation filter is ground, and the head/body templates
// used to emit facts and provenance. A plan depends on its rule, on the
// interner its constants are looked up in and on the EDB's lengths, so
// plans are compiled once per (program, base) — per evaluation for
// EvalCtx, once per base for a Prepared query (compiled.go) — and the
// fixpoint only reads them.
//
// The join order is chosen greedily: after the delta occurrence (which
// must stay first — it is the smallest relation and the partitioned
// one), the next subgoal is the one with the most argument positions
// that are constants or already-bound variables. Ties go to the lowest
// subgoal index, except that between two EDB subgoals the shorter
// relation wins — an exact count the interned base already has, which
// puts a 5-row filter before the 30,000-row relation it filters. The
// order depends on the rule and the EDB's lengths, never on derived
// data, so Stats stay deterministic. The fixpoint may still reorder a
// running task once, from exact fan-outs (compiled.go).
//
// Slot bindings need no save/restore on backtrack: the binding
// progression along the join order is static, so a slot is only ever
// read at depths where the plan guarantees it was bound — a stale value
// left in a slot by an abandoned branch is never observable.

import "repro/internal/ast"

// layout numbers a validated program's predicates and plans densely,
// once: the evaluator's relations, plans and round deltas are slices
// indexed by these ids, and no name is looked up while a fixpoint runs.
// Predicate ids put the IDB predicates first, in order of their first
// rule, then the EDB ones. Rule i's plan restricted to occurrence occ
// (-1 for none) has the index ruleOff[i]+occ+1, whether or not anyone
// compiles it: the fixpoint compiles the full join of every rule and the
// IDB occurrences, DeltaProgram every occurrence.
type layout struct {
	prog    *ast.Program
	preds   []string // by id
	ids     map[string]int
	arity   []int // by id
	nIDB    int
	idbPr   map[string]bool
	ruleOff []int
	nPlans  int
	// The plans the fixpoint runs, in schedule order: round 0 runs every
	// init rule's full join, every later round every (rule, IDB
	// occurrence) pair.
	init, delta []int
}

// newLayout validates p and numbers it.
func newLayout(p *ast.Program) (*layout, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	arity, err := p.PredArity()
	if err != nil {
		return nil, err
	}
	lay := &layout{prog: p, ids: make(map[string]int, len(arity)), idbPr: p.IDB(), ruleOff: make([]int, len(p.Rules))}
	add := func(pred string) {
		if _, ok := lay.ids[pred]; !ok {
			lay.ids[pred] = len(lay.preds)
			lay.preds = append(lay.preds, pred)
			lay.arity = append(lay.arity, arity[pred])
		}
	}
	for _, r := range p.Rules {
		add(r.Head.Pred)
	}
	lay.nIDB = len(lay.preds)
	for _, r := range p.Rules {
		for _, a := range r.Pos {
			add(a.Pred)
		}
		for _, a := range r.Neg {
			add(a.Pred)
		}
	}
	for i, r := range p.Rules {
		lay.ruleOff[i] = lay.nPlans
		lay.nPlans += len(r.Pos) + 1
		if r.IsInit(lay.idbPr) {
			lay.init = append(lay.init, lay.ruleOff[i])
		}
		for occ, a := range r.Pos {
			if lay.idbPr[a.Pred] {
				lay.delta = append(lay.delta, lay.planIdx(i, occ))
			}
		}
	}
	return lay, nil
}

// planIdx is the index of rule i's plan restricted to occurrence occ.
func (lay *layout) planIdx(i, occ int) int { return lay.ruleOff[i] + occ + 1 }

// relSrc says which relation a subgoal reads.
type relSrc uint8

const (
	srcEDB relSrc = iota
	srcIDB
	srcDelta // the delta-restricted occurrence
)

// atomTpl is an atom with each argument resolved to either an interned
// constant id or a binding-slot number.
type atomTpl struct {
	pred    string
	rel     int // pred's layout id
	isConst []bool
	vals    []uint32 // constant id when isConst, else slot
}

// cmpPlan is a comparison with both sides resolved to an interned
// constant id or a slot.
type cmpPlan struct {
	op             ast.CmpOp
	lConst, rConst bool
	l, r           uint32
}

// subPlan is one join step.
type subPlan struct {
	subIdx int // index into Rule.Pos
	rel    int // the subgoal predicate's layout id
	src    relSrc
	// Argument positions bound before this subgoal is probed, and the
	// constant id (boundConst) or slot (otherwise) each must equal.
	boundPos   []int
	boundConst []bool
	boundVal   []uint32
	mask       uint64 // bitmask of boundPos, the index key
	indexable  bool   // all boundPos < 64 (mask representable)
	// Fresh variables this subgoal binds: slot[k] = row[bindPos[k]].
	bindPos  []int
	bindSlot []uint32
	// Later occurrences of a variable first bound earlier in this same
	// atom: row[checkPos[k]] must equal the slot bound by bindPos.
	checkPos  []int
	checkSlot []uint32
	// Filters that first become ground once this subgoal is bound.
	cmps []cmpPlan
	negs []atomTpl
}

// plan is the compiled form of one (rule, occurrence) task.
type plan struct {
	ruleIdx int
	occ     int
	order   []int // join depth → subgoal index
	subs    []subPlan
	nSlots  int
	// Filters of zero-subgoal rules, applied at the finish step (rules
	// with subgoals always ground their filters at some join depth).
	finishCmps []cmpPlan
	finishNegs []atomTpl
	head       atomTpl
	// Templates in rule order for materializing provenance steps.
	posTpls     []atomTpl
	negTpls     []atomTpl
	maxNegArity int
}

// joinOrder orders the subgoals of r for a task restricted to delta
// occurrence occ (-1 for none); headBound counts the head's variables
// as bound before the first subgoal is probed (derivability plans).
// edbLen returns the length of an EDB predicate's relation and is asked
// only to break a tie between two EDB subgoals; nil breaks every tie by
// index. See the comment at the top of the file.
func joinOrder(r ast.Rule, occ int, headBound bool, idbPr map[string]bool, edbLen func(pred string) int) []int {
	n := len(r.Pos)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := map[string]bool{}
	if headBound {
		for _, t := range r.Head.Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}
	take := func(i int) {
		order = append(order, i)
		used[i] = true
		for _, t := range r.Pos[i].Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}
	shorter := func(i, j int) bool {
		a, b := r.Pos[i].Pred, r.Pos[j].Pred
		return edbLen != nil && !idbPr[a] && !idbPr[b] && edbLen(a) < edbLen(b)
	}
	if occ >= 0 && occ < n {
		take(occ)
	}
	for len(order) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range r.Pos[i].Args {
				if t.IsConst() || bound[t.Name] {
					score++
				}
			}
			if score > bestScore || score == bestScore && shorter(i, best) {
				best, bestScore = i, score
			}
		}
		take(best)
	}
	return order
}

// compilePlan builds the plan for one (rule, occurrence) task under the
// given join order, interning every constant the rule mentions. With
// headBound the head's variables are assigned the lowest slots (in
// order of first occurrence in the head) and treated as bound from
// depth 0. The executor seeds those slots from a candidate head row
// before joining, which turns the plan into a derivability check —
// every subgoal sees the head variables as bound positions, so the join
// only explores instantiations that could derive exactly that row
// (DRed's rederivation step in internal/incr). Every plan for the same
// (rule, occ) has the same nSlots — slots number the rule's variables,
// not join depths — which is what lets the fixpoint swap plans mid-task
// without touching its binding buffer.
func compilePlan(in *interner, lay *layout, r ast.Rule, ruleIdx, occ int, headBound bool, order []int) *plan {
	n := len(r.Pos)
	pl := &plan{ruleIdx: ruleIdx, occ: occ, order: order}

	slots := map[string]uint32{}
	slotOf := func(name string) uint32 {
		if s, ok := slots[name]; ok {
			return s
		}
		s := uint32(len(slots))
		slots[name] = s
		return s
	}
	bound := map[string]bool{}
	if headBound {
		for _, t := range r.Head.Args {
			if !t.IsConst() {
				slotOf(t.Name)
				bound[t.Name] = true
			}
		}
	}
	cmpDone := make([]bool, len(r.Cmp))
	negDone := make([]bool, len(r.Neg))
	allBound := func(vars []string) bool {
		for _, v := range vars {
			if !bound[v] {
				return false
			}
		}
		return true
	}

	pl.subs = make([]subPlan, n)
	for d, si := range pl.order {
		sub := r.Pos[si]
		sp := &pl.subs[d]
		sp.subIdx = si
		sp.rel = lay.ids[sub.Pred]
		switch {
		case si == occ:
			sp.src = srcDelta
		case sp.rel < lay.nIDB:
			sp.src = srcIDB
		default:
			sp.src = srcEDB
		}
		inAtom := map[string]uint32{}
		for j, t := range sub.Args {
			switch {
			case t.IsConst():
				sp.boundPos = append(sp.boundPos, j)
				sp.boundConst = append(sp.boundConst, true)
				sp.boundVal = append(sp.boundVal, in.intern(t))
			case bound[t.Name]:
				sp.boundPos = append(sp.boundPos, j)
				sp.boundConst = append(sp.boundConst, false)
				sp.boundVal = append(sp.boundVal, slotOf(t.Name))
			case hasKey(inAtom, t.Name):
				sp.checkPos = append(sp.checkPos, j)
				sp.checkSlot = append(sp.checkSlot, inAtom[t.Name])
			default:
				s := slotOf(t.Name)
				inAtom[t.Name] = s
				sp.bindPos = append(sp.bindPos, j)
				sp.bindSlot = append(sp.bindSlot, s)
			}
		}
		sp.indexable = true
		for _, p := range sp.boundPos {
			if p >= 64 {
				// Positions past 64 have no bitmask; fall back to a
				// scan (vanishingly rare — arity > 64).
				sp.indexable = false
			}
		}
		if sp.indexable {
			for _, p := range sp.boundPos {
				sp.mask |= 1 << uint(p)
			}
		}
		for name := range inAtom {
			bound[name] = true
		}
		// Attach every filter that just became ground. The checks are
		// idempotent (comparison operands are fixed once bound, the EDB
		// is frozen), so checking each filter exactly once at its
		// earliest-ground depth prunes every branch it ever would.
		for i, c := range r.Cmp {
			if !cmpDone[i] && allBound(c.Vars(nil)) {
				sp.cmps = append(sp.cmps, compileCmp(in, slotOf, c))
				cmpDone[i] = true
			}
		}
		for i, a := range r.Neg {
			if !negDone[i] && allBound(a.Vars(nil)) {
				sp.negs = append(sp.negs, compileAtomTpl(in, lay, slotOf, a))
				negDone[i] = true
			}
		}
	}
	// Zero-subgoal rules ground their (necessarily variable-free)
	// filters at the finish step.
	for i, c := range r.Cmp {
		if !cmpDone[i] {
			pl.finishCmps = append(pl.finishCmps, compileCmp(in, slotOf, c))
		}
	}
	for i, a := range r.Neg {
		if !negDone[i] {
			pl.finishNegs = append(pl.finishNegs, compileAtomTpl(in, lay, slotOf, a))
		}
	}

	pl.head = compileAtomTpl(in, lay, slotOf, r.Head)
	for _, a := range r.Pos {
		pl.posTpls = append(pl.posTpls, compileAtomTpl(in, lay, slotOf, a))
	}
	for _, a := range r.Neg {
		tpl := compileAtomTpl(in, lay, slotOf, a)
		pl.negTpls = append(pl.negTpls, tpl)
		if len(tpl.isConst) > pl.maxNegArity {
			pl.maxNegArity = len(tpl.isConst)
		}
	}
	pl.nSlots = len(slots)
	return pl
}

func hasKey(m map[string]uint32, k string) bool {
	_, ok := m[k]
	return ok
}

func intsEqual(a, b []int) bool {
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

func compileAtomTpl(in *interner, lay *layout, slotOf func(string) uint32, a ast.Atom) atomTpl {
	tpl := atomTpl{
		pred:    a.Pred,
		rel:     lay.ids[a.Pred],
		isConst: make([]bool, len(a.Args)),
		vals:    make([]uint32, len(a.Args)),
	}
	for j, t := range a.Args {
		if t.IsConst() {
			tpl.isConst[j] = true
			tpl.vals[j] = in.intern(t)
		} else {
			tpl.vals[j] = slotOf(t.Name)
		}
	}
	return tpl
}

func compileCmp(in *interner, slotOf func(string) uint32, c ast.Cmp) cmpPlan {
	cp := cmpPlan{op: c.Op}
	if c.Left.IsConst() {
		cp.lConst = true
		cp.l = in.intern(c.Left)
	} else {
		cp.l = slotOf(c.Left.Name)
	}
	if c.Right.IsConst() {
		cp.rConst = true
		cp.r = in.intern(c.Right)
	} else {
		cp.r = slotOf(c.Right.Name)
	}
	return cp
}
