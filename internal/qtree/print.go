package qtree

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Print renders the query forest as indented text, in the spirit of
// Figure 1 of the paper: one tree per root, goal nodes annotated with
// their adornment triplets, rule nodes shown as the rules they carry.
// Classes already printed are referenced by name instead of being
// re-expanded (the forest encodes recursion by sharing).
func (t *Tree) Print() string {
	var b strings.Builder
	printed := map[int]bool{}
	for i, root := range t.Roots {
		fmt.Fprintf(&b, "=== tree %d: root %s ===\n", i+1, t.nodeName(root))
		t.printNode(&b, root, 0, printed)
	}
	if len(t.Roots) == 0 {
		b.WriteString("(empty forest: the query predicate is unsatisfiable w.r.t. the constraints)\n")
	}
	return b.String()
}

// nodeName renders a goal node compactly: pred^adornment{label}.
func (t *Tree) nodeName(n *Node) string {
	return n.Pred + "^a" + strconv.Itoa(n.AdornID) + "#" + strconv.Itoa(n.ID)
}

func (t *Tree) printNode(b *strings.Builder, n *Node, depth int, printed map[int]bool) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s %s\n", ind, t.nodeName(n), t.describeAdorn(n))
	if printed[n.ID] {
		fmt.Fprintf(b, "%s  (see above)\n", ind)
		return
	}
	printed[n.ID] = true
	for _, rn := range n.RuleKids {
		fmt.Fprintf(b, "%s  rule: %s\n", ind, rn.AR.Rule)
		for _, c := range rn.Children {
			if c != nil {
				t.printNode(b, c, depth+2, printed)
			}
		}
	}
}

// describeAdorn summarizes a node's adornment: for each non-trivial
// triplet, the constraint index and the unmapped atoms.
func (t *Tree) describeAdorn(n *Node) string {
	ad := t.Res.Adorn[n.Pred][n.AdornID]
	var parts []string
	for _, tr := range ad.Triplets {
		plan := t.Res.Plans[tr.IC]
		if len(tr.Unmapped) == len(plan.IC.Pos) && len(tr.Sigma) == 0 {
			continue // trivial
		}
		var atoms []string
		for _, ui := range tr.Unmapped {
			atoms = append(atoms, plan.IC.Pos[ui].String())
		}
		parts = append(parts, fmt.Sprintf("ic%d:{%s}", tr.IC, strings.Join(atoms, ", ")))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, " ") + "}"
}
