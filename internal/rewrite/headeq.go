package rewrite

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/unify"
)

// PropagateHeadEqualities realizes the paper's footnote 1 ("during the
// construction of t some variables of the root may be equated") as a
// program transformation: whenever EVERY rule head of an IDB predicate
// forces an equality between two argument positions (or pins a
// position to a constant), every subgoal occurrence of that predicate
// is unified accordingly, equating the caller's variables. The pass
// iterates to a fixpoint, since a substitution in a rule body can
// equate that rule's own head arguments and thereby propagate further
// up.
//
// The transformation is an equivalence: tuples of the predicate can
// only ever have the forced shape, so unifying the occurrence changes
// no answers. It matters for precision of the query-tree algorithm:
// without it, an equality forced inside a subtree is invisible to
// sibling subgoals of the calling rule.
func PropagateHeadEqualities(p *ast.Program) *ast.Program {
	out := p.Clone()
	for iter := 0; iter < len(out.Rules)+8; iter++ {
		forced := forcedHeadShapes(out)
		changed := false
		for ri := range out.Rules {
			r := out.Rules[ri]
			s := unify.Subst{}
			for _, sub := range r.Pos {
				shape, ok := forced[sub.Pred]
				if !ok {
					continue
				}
				// Unify shape-side first so that shape variables bind
				// to occurrence terms (never the other way round) and
				// repeated classes equate the occurrence's variables.
				if s2, ok := unify.Unify(shapeAtom(sub.Pred, shape, len(sub.Args)), sub, s); ok {
					s = s2
				}
				// A failed unification means the subgoal can never be
				// satisfied (e.g. p(1, 2) where all heads force
				// equality); the rule is dead, but removing it here
				// would change IsInit bookkeeping — the query tree
				// prunes it anyway.
			}
			if len(s) > 0 {
				nr := s.ApplyRule(r)
				if !nr.Equal(r) {
					out.Rules[ri] = nr
					changed = true
				}
			}
		}
		if !changed {
			return out
		}
	}
	return out
}

// headShape describes what every head of a predicate forces: for each
// argument position, either a shared equivalence class id or a pinned
// constant.
type headShape struct {
	class []int      // position -> class id
	pin   []ast.Term // class id -> constant (zero Term if none)
}

// forcedHeadShapes computes, per IDB predicate, the equalities and
// constants common to all of its rule heads. Predicates whose heads
// force nothing are omitted.
func forcedHeadShapes(p *ast.Program) map[string]headShape {
	shapes := map[string]headShape{}
	for _, r := range p.Rules {
		h := r.Head
		cur := shapeOf(h)
		prev, ok := shapes[h.Pred]
		if !ok {
			shapes[h.Pred] = cur
			continue
		}
		shapes[h.Pred] = joinShapes(prev, cur)
	}
	// Drop shapes that force nothing (all classes distinct, no pins).
	for pred, sh := range shapes {
		interesting := false
		seen := map[int]bool{}
		for _, c := range sh.class {
			if seen[c] {
				interesting = true // repeated class: forced equality
			}
			seen[c] = true
		}
		for _, t := range sh.pin {
			if t.IsConst() {
				interesting = true // pinned constant
			}
		}
		if !interesting {
			delete(shapes, pred)
		}
	}
	return shapes
}

// shapeOf extracts the equality/constant shape of one head atom.
func shapeOf(h ast.Atom) headShape {
	sh := headShape{class: make([]int, len(h.Args))}
	byTerm := map[ast.Term]int{}
	for i, t := range h.Args {
		id, ok := byTerm[t]
		if !ok {
			id = len(sh.pin)
			byTerm[t] = id
			if t.IsConst() {
				sh.pin = append(sh.pin, t)
			} else {
				sh.pin = append(sh.pin, ast.Term{})
			}
		}
		sh.class[i] = id
	}
	return sh
}

// joinShapes computes the least-restrictive shape implied by both: two
// positions stay equal only if equal in both; a pin survives only if
// both pin the same constant.
func joinShapes(a, b headShape) headShape {
	n := len(a.class)
	out := headShape{class: make([]int, n)}
	byPair := map[[2]int]int{}
	for i := 0; i < n; i++ {
		key := [2]int{a.class[i], b.class[i]}
		id, ok := byPair[key]
		if !ok {
			id = len(out.pin)
			byPair[key] = id
			pa, pb := a.pin[a.class[i]], b.pin[b.class[i]]
			if pa.IsConst() && pb.IsConst() && pa.Equal(pb) {
				out.pin = append(out.pin, pa)
			} else {
				out.pin = append(out.pin, ast.Term{})
			}
		}
		out.class[i] = id
	}
	return out
}

// shapeAtom materializes a shape as an atom with fresh variables per
// class (or the pinned constant), suitable for unification against an
// occurrence.
func shapeAtom(pred string, sh headShape, arity int) ast.Atom {
	args := make([]ast.Term, arity)
	for i := 0; i < arity; i++ {
		c := sh.class[i]
		if sh.pin[c].IsConst() {
			args[i] = sh.pin[c]
		} else {
			args[i] = ast.V("Hq#" + pred + "#" + strconv.Itoa(c))
		}
	}
	return ast.NewAtom(pred, args...)
}
