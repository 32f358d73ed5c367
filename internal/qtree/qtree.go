// Package qtree implements the top-down phase of the query-tree
// algorithm (Section 4.1 of the paper): construction of the query
// tree/forest with labels pushed from parents to children along the
// provenance recorded by the bottom-up phase (package adorn), and
// extraction of the rewritten program that completely incorporates the
// integrity constraints (Theorems 4.1 and 4.2). The paper's pruning
// finds nothing here: the bottom-up phase registers an adornment only
// with a rule whose IDB children it registered before, and the forest
// grows from its roots, so every node is productive and reachable.
package qtree

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/order"
	"repro/internal/rewrite"
)

// LabelTriplet refines an adornment triplet at a node of the query
// tree: partial mappings into the whole encoded derivation, not just
// the subtree below the node.
type LabelTriplet struct {
	IC       int
	Unmapped []int
	Sigma    map[string]adorn.Image
	// AdornTriplet is the index of the corresponding triplet in the
	// node's adornment (the paper's triplet correspondence).
	AdornTriplet int
}

// appendKey appends the label triplet's canonical key, including the
// correspondence, to dst.
func (lt LabelTriplet) appendKey(dst []byte) []byte {
	dst = adorn.Triplet{IC: lt.IC, Unmapped: lt.Unmapped, Sigma: lt.Sigma}.AppendKey(dst)
	return strconv.AppendInt(append(dst, '@'), int64(lt.AdornTriplet), 10)
}

// Node is an IDB goal node of the query tree — more precisely the
// representative of an equivalence class of goal nodes (isomorphic
// atom, same adornment, identical label with identical triplet
// correspondences).
type Node struct {
	ID      int
	Pred    string // specialized predicate
	AdornID int
	Label   []LabelTriplet
	// RuleKids are the rule-node children (one per adorned rule whose
	// head matches the node's predicate and adornment).
	RuleKids []*RuleNode
}

// RuleNode is a rule node of the query tree.
type RuleNode struct {
	AR *adorn.AdornedRule
	// Children holds the goal-node child per positive subgoal (nil for
	// EDB subgoals, which are leaves and carry no labels).
	Children []*Node
}

// Tree is the query forest: one root per adornment of the query
// predicate.
type Tree struct {
	Res   *adorn.Result
	Roots []*Node
	Nodes []*Node
	byKey map[string]*Node

	keyBuf []byte // intern's reused key buffer
}

// Build constructs the query forest from the bottom-up result,
// expanding one goal node per equivalence class.
func Build(res *adorn.Result) *Tree {
	t := &Tree{Res: res, byKey: map[string]*Node{}}
	q := res.Spec.Query
	var keys []string
	for adornID := range res.Adorn[q] {
		// Root label: the adornment itself, with identity correspondence.
		var label []LabelTriplet
		keys = keys[:0]
		for ti, tr := range res.Adorn[q][adornID].Triplets {
			lt := LabelTriplet{IC: tr.IC, Unmapped: tr.Unmapped, Sigma: tr.Sigma, AdornTriplet: ti}
			label = append(label, lt)
			keys = append(keys, string(lt.appendKey(nil)))
		}
		t.Roots = append(t.Roots, t.intern(q, adornID, label, keys))
	}
	// Expand breadth-first; intern enqueues by appending to t.Nodes.
	for i := 0; i < len(t.Nodes); i++ {
		t.expand(t.Nodes[i])
	}
	return t
}

// intern returns the class representative for (pred, adornID, label),
// creating it if new. keys holds the keys of the label's triplets; the
// class key is "pred|adornID|" and those keys sorted, joined by '&'.
func (t *Tree) intern(pred string, adornID int, label []LabelTriplet, keys []string) *Node {
	slices.Sort(keys)
	t.keyBuf = strconv.AppendInt(append(append(t.keyBuf[:0], pred...), '|'), int64(adornID), 10)
	t.keyBuf = append(t.keyBuf, '|')
	for i, k := range keys {
		if i > 0 {
			t.keyBuf = append(t.keyBuf, '&')
		}
		t.keyBuf = append(t.keyBuf, k...)
	}
	if n, ok := t.byKey[string(t.keyBuf)]; ok {
		return n
	}
	n := &Node{ID: len(t.Nodes), Pred: pred, AdornID: adornID, Label: label}
	t.byKey[string(t.keyBuf)] = n
	t.Nodes = append(t.Nodes, n)
	return n
}

// expand creates the rule-node children of a goal node and the goal
// nodes for their IDB subgoals, pushing labels down.
func (t *Tree) expand(n *Node) {
	res := t.Res
	for _, arIdx := range res.RulesByHead[n.Pred][n.AdornID] {
		ar := res.Rules[arIdx]
		rn := &RuleNode{AR: ar, Children: make([]*Node, len(ar.Rule.Pos))}
		for j, sub := range ar.Rule.Pos {
			if ar.ChildAdornIDs[j] < 0 {
				continue // EDB leaf
			}
			childLabel, keys := t.childLabel(n, ar, j)
			rn.Children[j] = t.intern(sub.Pred, ar.ChildAdornIDs[j], childLabel, keys)
		}
		n.RuleKids = append(n.RuleKids, rn)
	}
}

// childLabel computes the label of the j-th subgoal of an adorned rule
// used below node n, following the paper's correspondences: each label
// triplet of n corresponds to a head-adornment triplet, which was
// produced by rule triplets, each of which chose one triplet at every
// subgoal; the child label triplet keeps the parent's unmapped set and
// restricts the child triplet's σ to its variables. It returns the
// label and the keys of its triplets.
func (t *Tree) childLabel(n *Node, ar *adorn.AdornedRule, j int) ([]LabelTriplet, []string) {
	res := t.Res
	childAd := res.Adorn[ar.Rule.Pos[j].Pred][ar.ChildAdornIDs[j]]
	seen := map[string]bool{}
	var out []LabelTriplet
	var keys []string
	var buf []byte
	var keep []string
	for _, lt := range n.Label {
		for _, rt := range ar.Triplets {
			if rt.IC != lt.IC || rt.HeadTriplet != lt.AdornTriplet {
				continue
			}
			ci := rt.ChildChoice[j]
			if ci < 0 || ci >= len(childAd.Triplets) {
				continue
			}
			ct := childAd.Triplets[ci]
			keep = res.Plans[lt.IC].VisibleVars(keep[:0], lt.Unmapped)
			nlt := LabelTriplet{
				IC:           lt.IC,
				Unmapped:     lt.Unmapped,
				Sigma:        adorn.Restrict(ct.Sigma, keep),
				AdornTriplet: ci,
			}
			if buf = nlt.appendKey(buf[:0]); !seen[string(buf)] {
				k := string(buf)
				seen[k] = true
				out = append(out, nlt)
				keys = append(keys, k)
			}
		}
	}
	return out, keys
}

// Prune does nothing.
//
// Deprecated: every node is productive and reachable (package doc).
func (t *Tree) Prune() {}

// Satisfiable reports whether the forest has a root: whether the query
// predicate has a consistent symbolic derivation.
func (t *Tree) Satisfiable() bool { return len(t.Roots) > 0 }

// Extract emits the rewritten program P′ (see extract).
func (t *Tree) Extract() *ast.Program { return extract(t.Res) }

// pair is a (specialized predicate, adornment id) pair of P1.
type pair struct {
	pred    string
	adornID int
}

// reachablePairs returns the pairs the query predicate's adornments
// reach through the adorned rules — the pairs of the forest's goal
// nodes — sorted by predicate and adornment id.
func reachablePairs(res *adorn.Result) []pair {
	q := res.Spec.Query
	seen := map[pair]bool{}
	var pairs []pair
	visit := func(p pair) {
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	for id := range res.Adorn[q] {
		visit(pair{q, id})
	}
	for i := 0; i < len(pairs); i++ {
		p := pairs[i]
		for _, ri := range res.RulesByHead[p.pred][p.adornID] {
			ar := res.Rules[ri]
			for j, sub := range ar.Rule.Pos {
				if ar.ChildAdornIDs[j] >= 0 {
					visit(pair{sub.Pred, ar.ChildAdornIDs[j]})
				}
			}
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		return cmp.Or(strings.Compare(a.pred, b.pred), cmp.Compare(a.adornID, b.adornID))
	})
	return pairs
}

// extract emits the rewritten program P′. The paper forms "a rule for
// every rule node in the tree"; distinct tree nodes carrying the same
// adorned rule of P1 yield the same rule, so the program is P1
// restricted to the pairs the query reaches — each pair becomes a
// fresh predicate, order residues are attached (negated, splitting
// rules when a residue has several atoms), and a wrapper rule binds
// the original query predicate to each root.
func extract(res *adorn.Result) *ast.Program {
	base := res.Spec.Base
	out := &ast.Program{Query: res.Spec.Base[res.Spec.Query]}

	// Deterministic naming: number the pairs in (pred, adornID) order.
	names := map[pair]string{}
	for i, p := range reachablePairs(res) {
		names[p] = fmt.Sprintf("%s_q%d", base[p.pred], i)
	}

	seenRule := map[string]bool{}
	emit := func(r ast.Rule) {
		if nr, ok := rewrite.NormalizeRule(r); ok {
			if k := nr.String(); !seenRule[k] {
				seenRule[k] = true
				out.Rules = append(out.Rules, nr)
			}
		}
	}

	for _, ar := range res.Rules {
		hName, ok := names[pair{ar.HeadPred, ar.HeadAdornID}]
		if !ok {
			continue // the query does not reach the head pair
		}
		r := ast.Rule{
			Head: ast.NewAtom(hName, ar.Rule.Head.Args...),
			Neg:  ar.Rule.Neg,
			Cmp:  ar.Rule.Cmp,
		}
		for j, sub := range ar.Rule.Pos {
			if ar.ChildAdornIDs[j] < 0 {
				r.Pos = append(r.Pos, sub)
			} else {
				cName := names[pair{sub.Pred, ar.ChildAdornIDs[j]}]
				r.Pos = append(r.Pos, ast.NewAtom(cName, sub.Args...))
			}
		}
		// Attach order residues: each residue o1 ∧ ... ∧ ok adds the
		// disjunction ¬o1 ∨ ... ∨ ¬ok, realized by splitting the rule
		// into k variants (their union is equivalent).
		variants := []ast.Rule{r}
		for _, residue := range ar.Residues {
			ruleSet := order.NewSet(r.Cmp...)
			if alreadyRefuted(ruleSet, residue) {
				continue // some ¬oi already implied; nothing to add
			}
			var next []ast.Rule
			for _, v := range variants {
				for _, c := range residue {
					nv := v.Clone()
					nv.Cmp = append(nv.Cmp, c.Negate())
					next = append(next, nv)
				}
			}
			variants = next
		}
		for _, v := range variants {
			emit(v)
		}
	}

	// Wrapper rules for the original query predicate.
	qSpec := res.Spec.Query
	pattern := res.Spec.Pattern[qSpec]
	for id := range res.Adorn[qSpec] {
		emit(ast.Rule{
			Head: ast.NewAtom(out.Query, pattern.Args...),
			Pos:  []ast.Atom{ast.NewAtom(names[pair{qSpec, id}], pattern.Args...)},
		})
	}

	// Residue attachment can normalize away every rule of a pair; drop
	// rules whose body references a generated predicate that ended up
	// rule-less, to a fixpoint.
	gen := map[string]bool{}
	for _, n := range names {
		gen[n] = true
	}
	for n := -1; n != len(out.Rules); {
		n = len(out.Rules)
		heads := map[string]bool{}
		for _, r := range out.Rules {
			heads[r.Head.Pred] = true
		}
		out.Rules = slices.DeleteFunc(out.Rules, func(r ast.Rule) bool {
			return slices.ContainsFunc(r.Pos, func(a ast.Atom) bool { return gen[a.Pred] && !heads[a.Pred] })
		})
	}
	return out
}

// alreadyRefuted reports whether the rule's order atoms already imply
// the negation of some residue conjunct (the residue cannot fire).
func alreadyRefuted(ruleSet *order.Set, residue []ast.Cmp) bool {
	for _, c := range residue {
		if ruleSet.Implies(c.Negate()) {
			return true
		}
	}
	return false
}

// Stats summarizes the tree for diagnostics and experiments.
type Stats struct {
	GoalNodes  int
	RuleNodes  int
	Roots      int
	Adornments int
}

// Stats computes summary statistics.
func (t *Tree) Stats() Stats {
	var s Stats
	s.GoalNodes = len(t.Nodes)
	s.Roots = len(t.Roots)
	for _, n := range t.Nodes {
		s.RuleNodes += len(n.RuleKids)
	}
	for _, ads := range t.Res.Adorn {
		s.Adornments += len(ads)
	}
	return s
}
