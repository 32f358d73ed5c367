package eval

// Compiled rule plans. A plan is built once per (rule, delta-occurrence)
// pair before the fixpoint starts and fixes everything an interpreter
// would re-derive per candidate tuple: the join order, each subgoal's
// bound argument positions (with constants pre-interned), variable →
// binding-slot assignments, the earliest join depth at which every
// comparison and negation filter is ground, and the head/body templates
// used to emit facts and provenance.
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

// planKey identifies a compiled plan: rule index plus the subgoal index
// restricted to the previous delta (-1 for none).
type planKey struct {
	ruleIdx int
	occ     int
}

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
	pred   string
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
func compilePlan(in *interner, idbPr map[string]bool, r ast.Rule, ruleIdx, occ int, headBound bool, order []int) *plan {
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
		sp.pred = sub.Pred
		switch {
		case si == occ:
			sp.src = srcDelta
		case idbPr[sub.Pred]:
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
				sp.negs = append(sp.negs, compileAtomTpl(in, slotOf, a))
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
			pl.finishNegs = append(pl.finishNegs, compileAtomTpl(in, slotOf, a))
		}
	}

	pl.head = compileAtomTpl(in, slotOf, r.Head)
	for _, a := range r.Pos {
		pl.posTpls = append(pl.posTpls, compileAtomTpl(in, slotOf, a))
	}
	for _, a := range r.Neg {
		tpl := compileAtomTpl(in, slotOf, a)
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

func compileAtomTpl(in *interner, slotOf func(string) uint32, a ast.Atom) atomTpl {
	tpl := atomTpl{
		pred:    a.Pred,
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
