package adorn

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/ast"
	"repro/internal/order"
	"repro/internal/rewrite"
	"repro/internal/unify"
)

// RuleTriplet is a combined triplet for a rule node of P1, with full
// provenance: which triplet was chosen at each positive subgoal, and
// which triplet of the head adornment it projects to.
type RuleTriplet struct {
	IC       int
	Unmapped []int
	// Sigma maps constraint variables to rule-space terms.
	Sigma map[string]ast.Term
	// ChildChoice holds, per positive subgoal, the index of the chosen
	// triplet: for an IDB subgoal an index into the child adornment's
	// Triplets, for an EDB subgoal an index into the occurrence's
	// computed triplet list. Only triplets of the same constraint are
	// referenced.
	ChildChoice []int
	// HeadTriplet indexes the head adornment's Triplets, or -1 when
	// the triplet does not project (some required variable is not
	// visible in the head).
	HeadTriplet int
}

// appendKey appends the canonical key of the rule triplet's logical
// content (IC, unmapped set, sigma), ignoring provenance, to dst.
func (rt RuleTriplet) appendKey(dst []byte) []byte {
	return appendTripletKey(dst, rt.IC, rt.Unmapped, rt.Sigma, ast.Term.AppendKey)
}

// EDBTriplet is a triplet computed for one EDB subgoal occurrence of a
// rule, in rule space.
type EDBTriplet struct {
	IC       int
	Unmapped []int
	Sigma    map[string]ast.Term
}

// AdornedRule is a rule of the adorned program P1.
type AdornedRule struct {
	// Rule is the specialized rule (head predicate is the specialized
	// name; adorned names are carried alongside, not in the AST).
	Rule ast.Rule
	// HeadPred is the specialized head predicate.
	HeadPred string
	// HeadAdornID identifies the head adornment within Result.Adorn.
	HeadAdornID int
	// ChildAdornIDs holds, per positive subgoal, the adornment id of
	// the IDB child (-1 for EDB subgoals).
	ChildAdornIDs []int
	// Triplets are the combined rule triplets with provenance.
	Triplets []RuleTriplet
	// Residues are order residues attached to this rule: for each, the
	// negation of the conjunction must be added when emitting the rule.
	Residues [][]ast.Cmp
}

// Result of the bottom-up phase.
type Result struct {
	Spec  *SpecProgram
	Plans []rewrite.ICPlan // with constraint variables renamed apart
	// Adorn lists the adornments of every specialized predicate;
	// adornment ids index this slice.
	Adorn map[string][]*Adornment
	// Rules is the adorned rule set P1.
	Rules []*AdornedRule
	// RulesByHead indexes Rules by head predicate and adornment id.
	RulesByHead map[string]map[int][]int
	// Warnings lists skipped (unsupported) constraints.
	Warnings []string

	adornIdx map[string]map[string]int // pred -> adornment key -> id
}

// AdornID interns an adornment for a predicate and returns its id and
// whether it was new.
func (res *Result) AdornID(pred string, a *Adornment) (int, bool) {
	m, ok := res.adornIdx[pred]
	if !ok {
		m = map[string]int{}
		res.adornIdx[pred] = m
	}
	if id, ok := m[a.Key()]; ok {
		return id, false
	}
	id := len(res.Adorn[pred])
	res.Adorn[pred] = append(res.Adorn[pred], a)
	m[a.Key()] = id
	return id, true
}

// icVarPrefix keeps constraint variables disjoint from all program
// variables (the parser rejects '#', and specialization introduces
// only V<n> and suffixed names).
const icVarPrefix = "Ic#"

// BottomUp runs the bottom-up phase of Section 4.1 (with the Section
// 4.2 local-atom modification and the quasi-local order-residue
// generalization) over a specialized program.
//
// The program must already be the output of the pre-processing chain:
// rewrite.NormalizeOrder, rewrite.RewriteLocalPlanned, Specialize.
func BottomUp(sp *SpecProgram, ics []ast.IC) (*Result, error) {
	// Rename constraints apart, once and globally, so σ variable names
	// agree across all nodes.
	renamed := make([]ast.IC, len(ics))
	for i, ic := range ics {
		renamed[i] = ast.RenameIC(ic, func(v string) string {
			return icVarPrefix + strconv.Itoa(i) + "_" + v
		})
	}
	plans := rewrite.PlanICs(renamed)

	res := &Result{
		Spec:        sp,
		Plans:       plans,
		Adorn:       map[string][]*Adornment{},
		RulesByHead: map[string]map[int][]int{},
		adornIdx:    map[string]map[string]int{},
	}
	for _, plan := range plans {
		if plan.Unsupported {
			res.Warnings = append(res.Warnings,
				fmt.Sprintf("ic %d (%s) skipped: %s", plan.Index, plan.IC, plan.Reason))
		}
	}

	idb := map[string]bool{}
	for name := range sp.Base {
		idb[name] = true
	}

	seenCombo := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for ri, r := range sp.Prog.Rules {
			if combineRuleAll(res, ri, r, idb, seenCombo) {
				changed = true
			}
		}
	}
	return res, nil
}

// combineRuleAll enumerates every assignment of current adornments to
// the rule's IDB subgoals, building adorned rules for assignments not
// yet seen. It reports whether anything new was added.
func combineRuleAll(res *Result, ri int, r ast.Rule, idb map[string]bool, seen map[string]bool) bool {
	added := false
	choice := make([]int, len(r.Pos))
	var key []byte
	var rec func(j int)
	rec = func(j int) {
		if j == len(r.Pos) {
			key = appendComboKey(key[:0], 'r', ri, choice)
			if seen[string(key)] {
				return
			}
			seen[string(key)] = true
			if buildAdornedRule(res, r, choice) {
				added = true
			}
			return
		}
		sub := r.Pos[j]
		if !idb[sub.Pred] {
			choice[j] = -1
			rec(j + 1)
			return
		}
		for id := range res.Adorn[sub.Pred] {
			choice[j] = id
			rec(j + 1)
		}
	}
	rec(0)
	return added
}

// appendComboKey appends "<tag><n>,<c0>,<c1>,..." to dst: a rule's
// choice of child adornments, or a rule triplet's choice of child
// triplets.
func appendComboKey(dst []byte, tag byte, n int, choice []int) []byte {
	dst = strconv.AppendInt(append(dst, tag), int64(n), 10)
	for _, c := range choice {
		dst = strconv.AppendInt(append(dst, ','), int64(c), 10)
	}
	return dst
}

// buildAdornedRule computes the rule adornment Ar for one choice of
// child adornments, projects the head adornment Ap, and registers both
// (unless the combination is inconsistent). It reports whether a new
// adornment or adorned rule was added.
func buildAdornedRule(res *Result, r ast.Rule, choice []int) bool {
	ruleOrder := order.NewSet(r.Cmp...)

	// Per-subgoal, per-constraint triplet lists in rule space, plus
	// the node-space index of each (for provenance): perSub[j][ic].
	type rsTriplet struct {
		unmapped []int
		sigma    map[string]ast.Term
		nodeIdx  int // index into child adornment triplets / EDB list
	}
	nSub := len(r.Pos)
	perSub := make([][][]rsTriplet, nSub)
	edbTriplets := make([]map[int][]EDBTriplet, nSub)

	for j, sub := range r.Pos {
		perSub[j] = make([][]rsTriplet, len(res.Plans))
		if choice[j] >= 0 {
			// IDB subgoal: convert the child adornment's node-space
			// triplets to rule space via the occurrence's arguments.
			ad := res.Adorn[sub.Pred][choice[j]]
			for ti, t := range ad.Triplets {
				sigma := map[string]ast.Term{}
				ok := true
				for v, im := range t.Sigma {
					term, found := im.termAt(sub)
					if !found {
						ok = false
						break
					}
					sigma[v] = term
				}
				if !ok {
					continue
				}
				perSub[j][t.IC] = append(perSub[j][t.IC],
					rsTriplet{unmapped: t.Unmapped, sigma: sigma, nodeIdx: ti})
			}
		} else {
			// EDB subgoal: compute occurrence triplets directly.
			edbTriplets[j] = map[int][]EDBTriplet{}
			for _, plan := range res.Plans {
				if plan.Unsupported {
					continue
				}
				ts := edbOccurrenceTriplets(r, sub, plan, ruleOrder)
				edbTriplets[j][plan.Index] = ts
				for ti, t := range ts {
					perSub[j][t.IC] = append(perSub[j][t.IC],
						rsTriplet{unmapped: t.Unmapped, sigma: t.Sigma, nodeIdx: ti})
				}
			}
		}
	}

	ar := &AdornedRule{
		Rule:          r.Clone(),
		HeadPred:      r.Head.Pred,
		ChildAdornIDs: append([]int(nil), choice...),
	}

	// Combine per constraint.
	type pending struct {
		rt      RuleTriplet
		headKey string // projected triplet key, "" if not projectable
		headT   Triplet
	}
	var pendings []pending
	seenRT := map[string]bool{}
	var pk []byte
	var keep []string
	residueSeen := map[string]bool{}

	for _, plan := range res.Plans {
		if plan.Unsupported {
			continue
		}
		ic := plan.IC
		icIdx := plan.Index
		allAtoms := make([]int, len(ic.Pos))
		for i := range allAtoms {
			allAtoms[i] = i
		}
		// Every subgoal always offers at least the trivial triplet; if
		// a subgoal has no triplet list for this constraint (converted
		// away), fall back to the trivial one.
		lists := make([][]rsTriplet, nSub)
		for j := 0; j < nSub; j++ {
			lists[j] = perSub[j][icIdx]
			if len(lists[j]) == 0 {
				lists[j] = []rsTriplet{{unmapped: allAtoms, sigma: map[string]ast.Term{}, nodeIdx: trivialIdx(res, r, choice, j, icIdx, edbTriplets)}}
			}
		}
		inconsistent := false
		cur := make([]int, nSub)
		// σ of the chosen triplets so far, bound in place and undone
		// through bound, the variables each choice added.
		sigma := unify.Subst{}
		var bound []string
		var rec func(j int, unmapped []int) bool
		rec = func(j int, unmapped []int) bool {
			if inconsistent {
				return false
			}
			if j == nSub {
				// Restrict sigma to variables that must stay visible.
				keep = plan.VisibleVars(keep[:0], unmapped)
				restricted := Restrict(sigma, keep)
				if len(unmapped) == 0 {
					if plan.PruneMode() {
						inconsistent = true
						return false
					}
					// Quasi-local residue: instantiate the non-local
					// order atoms; skip if some variable is invisible.
					if cmps, ok := instantiateResidue(plan.ResidueCmps, restricted); ok {
						k := ast.CmpsKey(cmps)
						if !residueSeen[k] {
							residueSeen[k] = true
							ar.Residues = append(ar.Residues, cmps)
						}
					}
					return true
				}
				rt := RuleTriplet{
					IC:          icIdx,
					Unmapped:    unmapped,
					Sigma:       restricted,
					HeadTriplet: -1,
				}
				pk = appendComboKey(append(rt.appendKey(pk[:0]), '|'), 'c', len(cur), cur)
				if seenRT[string(pk)] {
					return true
				}
				seenRT[string(pk)] = true
				rt.ChildChoice = append([]int(nil), cur...)
				headT, ok := projectHead(rt, r.Head)
				p := pending{rt: rt}
				if ok {
					p.headKey = headT.Key()
					p.headT = headT
				}
				pendings = append(pendings, p)
				return true
			}
			for _, t := range lists[j] {
				mark := len(bound)
				var ok bool
				if bound, ok = bindSigma(sigma, t.sigma, bound); !ok {
					continue
				}
				cur[j] = t.nodeIdx
				more := rec(j+1, intersect(unmapped, t.unmapped))
				bound = sigma.Undo(bound, mark)
				if !more {
					return false
				}
			}
			return true
		}
		rec(0, allAtoms)
		if inconsistent {
			return false // the whole adorned rule is impossible
		}
	}

	// Build the head adornment from projectable triplets (plus the
	// trivial ones, which always project).
	var headTriplets []Triplet
	var headKeys []string
	for _, p := range pendings {
		if p.headKey != "" {
			headTriplets = append(headTriplets, p.headT)
			headKeys = append(headKeys, p.headKey)
		}
	}
	headAd := newAdornment(headTriplets, headKeys)
	id, _ := res.AdornID(r.Head.Pred, headAd)
	ar.HeadAdornID = id
	for _, p := range pendings {
		rt := p.rt
		if p.headKey != "" {
			rt.HeadTriplet = headAd.TripletIndex(p.headKey)
		}
		ar.Triplets = append(ar.Triplets, rt)
	}

	res.Rules = append(res.Rules, ar)
	byHead, ok := res.RulesByHead[r.Head.Pred]
	if !ok {
		byHead = map[int][]int{}
		res.RulesByHead[r.Head.Pred] = byHead
	}
	byHead[id] = append(byHead[id], len(res.Rules)-1)
	return true // a new adorned rule was added (combo was unseen)
}

// trivialIdx returns the node-space index of the trivial triplet for
// subgoal j and the given constraint — needed when the subgoal's list
// was empty after conversion. For IDB children the trivial triplet is
// always present in the adornment; for EDB occurrences it is always
// first in the computed list.
func trivialIdx(res *Result, r ast.Rule, choice []int, j, icIdx int, edb []map[int][]EDBTriplet) int {
	if choice[j] >= 0 {
		ad := res.Adorn[r.Pos[j].Pred][choice[j]]
		for ti, t := range ad.Triplets {
			if t.IC == icIdx && len(t.Sigma) == 0 && len(t.Unmapped) == len(res.Plans[icIdx].IC.Pos) {
				return ti
			}
		}
		return -1
	}
	return 0
}

// Restrict returns the entries of sigma whose variable is in keep.
func Restrict[V any](sigma map[string]V, keep []string) map[string]V {
	out := map[string]V{}
	for v, t := range sigma {
		if slices.Contains(keep, v) {
			out[v] = t
		}
	}
	return out
}

// instantiateResidue applies sigma to the residue order atoms; it
// fails if some variable has no image.
func instantiateResidue(cmps []ast.Cmp, sigma map[string]ast.Term) ([]ast.Cmp, bool) {
	resolve := func(t ast.Term) (ast.Term, bool) {
		if !t.IsVar() {
			return t, true
		}
		v, ok := sigma[t.Name]
		return v, ok
	}
	out := make([]ast.Cmp, len(cmps))
	for i, c := range cmps {
		l, ok1 := resolve(c.Left)
		r, ok2 := resolve(c.Right)
		if !ok1 || !ok2 {
			return nil, false
		}
		out[i] = ast.NewCmp(l, c.Op, r)
	}
	return out, true
}

// projectHead converts a rule-space triplet to a node-space triplet on
// the head atom. Every σ variable must be visible: a constant, or a
// variable occurring in the head.
func projectHead(rt RuleTriplet, head ast.Atom) (Triplet, bool) {
	t := Triplet{IC: rt.IC, Unmapped: rt.Unmapped, Sigma: map[string]Image{}}
	for v, term := range rt.Sigma {
		im, ok := imageOf(term, head)
		if !ok {
			return Triplet{}, false
		}
		t.Sigma[v] = im
	}
	return t, true
}

// bindSigma adds src's bindings to the rule-space σ dst, which must
// agree with it on shared variables, appending the variables it added
// to bound. On disagreement it undoes its additions and fails.
func bindSigma(dst unify.Subst, src map[string]ast.Term, bound []string) ([]string, bool) {
	mark := len(bound)
	for v, t := range src {
		if prev, ok := dst[v]; ok {
			if !prev.Equal(t) {
				return dst.Undo(bound, mark), false
			}
			continue
		}
		dst[v] = t
		bound = append(bound, v)
	}
	return bound, true
}

// intersect returns the sorted intersection of two sorted int slices.
func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// edbOccurrenceTriplets computes the triplets of one EDB subgoal
// occurrence for one constraint: one triplet per homomorphism from
// each subset of the constraint's positive atoms into the occurrence
// atom, subject to the Section 4.2 local-atom conditions. The trivial
// (empty-subset) triplet is always first.
func edbOccurrenceTriplets(r ast.Rule, occ ast.Atom, plan rewrite.ICPlan, ruleOrder *order.Set) []EDBTriplet {
	ic := plan.IC
	n := len(ic.Pos)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	out := []EDBTriplet{{IC: plan.Index, Unmapped: all, Sigma: map[string]ast.Term{}}}
	key := out[0].appendKey(nil)
	seen := map[string]bool{string(key): true}

	var keep []string
	for mask := 1; mask < 1<<n; mask++ {
		var mapped []ast.Atom
		var mappedIdx []int
		var unmapped []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				mapped = append(mapped, ic.Pos[i])
				mappedIdx = append(mappedIdx, i)
			} else {
				unmapped = append(unmapped, i)
			}
		}
		if !allSamePred(mapped, occ.Pred) {
			continue // Homomorphisms would also reject; skip cheaply.
		}
		keep = plan.VisibleVars(keep[:0], unmapped)
		unify.Homomorphisms(mapped, []ast.Atom{occ}, func(h unify.Subst) bool {
			// Section 4.2 condition: each mapped atom that anchors a
			// local atom l requires h(l) (order) or ¬h(l) (negated
			// EDB) to hold in the rule.
			for _, mi := range mappedIdx {
				for _, lp := range plan.Pairs {
					if !lp.Anchor.Equal(ic.Pos[mi]) {
						continue
					}
					if lp.OrderAtom != nil {
						if !ruleOrder.Implies(h.ApplyCmp(*lp.OrderAtom)) {
							return true // condition fails; skip mapping
						}
					} else {
						hl := h.ApplyAtom(*lp.NegEDB)
						if !atomIn(hl, r.Neg) {
							return true
						}
					}
				}
			}
			// σ: the images of the mapped atoms' variables that must
			// stay visible.
			sigma := map[string]ast.Term{}
			for _, mi := range mappedIdx {
				for _, v := range ic.Pos[mi].Args {
					if !v.IsVar() || !slices.Contains(keep, v.Name) {
						continue
					}
					if _, ok := h[v.Name]; ok {
						sigma[v.Name] = h.Walk(v)
					}
				}
			}
			t := EDBTriplet{IC: plan.Index, Unmapped: unmapped, Sigma: sigma}
			if key = t.appendKey(key[:0]); !seen[string(key)] {
				seen[string(key)] = true
				out = append(out, t)
			}
			return true
		})
	}
	return out
}

func allSamePred(atoms []ast.Atom, pred string) bool {
	for _, a := range atoms {
		if a.Pred != pred {
			return false
		}
	}
	return true
}

func atomIn(a ast.Atom, as []ast.Atom) bool {
	for _, b := range as {
		if a.Equal(b) {
			return true
		}
	}
	return false
}

// appendKey appends the EDB triplet's key, in the rule-triplet
// format, to dst.
func (t EDBTriplet) appendKey(dst []byte) []byte {
	return appendTripletKey(dst, t.IC, t.Unmapped, t.Sigma, ast.Term.AppendKey)
}
