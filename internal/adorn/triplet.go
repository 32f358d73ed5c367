package adorn

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// Image is where an integrity-constraint variable lands on a node:
// either a set of argument positions of the node's predicate (all
// holding the same variable), or a constant value forced by the
// mapping.
type Image struct {
	Positions []int // sorted; nil when Const is set
	Const     *ast.Term
}

// key renders the image canonically.
func (im Image) key() string {
	if im.Const != nil {
		return "c" + im.Const.Key()
	}
	parts := make([]string, len(im.Positions))
	for i, p := range im.Positions {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return "p" + strings.Join(parts, ",")
}

// Triplet is the paper's (I, σ, s): I identifies an integrity
// constraint, s the subset of its positive atoms NOT yet mapped into
// the subtree, and σ the images (on the node's argument positions) of
// the constraint variables that must stay visible — those shared
// between s and the mapped part, plus the variables of residue order
// atoms.
type Triplet struct {
	IC       int
	Unmapped []int // sorted indices into the constraint's positive atoms
	Sigma    map[string]Image
}

// Key canonically identifies the triplet.
func (t Triplet) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "I%d|", t.IC)
	for i, u := range t.Unmapped {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", u)
	}
	b.WriteByte('|')
	vars := make([]string, 0, len(t.Sigma))
	for v := range t.Sigma {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(v)
		b.WriteByte('=')
		b.WriteString(t.Sigma[v].key())
	}
	return b.String()
}

// Adornment is a set of triplets attached to a (specialized)
// predicate, canonically ordered by Key.
type Adornment struct {
	Triplets []Triplet
	key      string
}

// NewAdornment canonicalizes and deduplicates the triplets.
func NewAdornment(ts []Triplet) *Adornment {
	seen := map[string]bool{}
	var uniq []Triplet
	for _, t := range ts {
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, t)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].Key() < uniq[j].Key() })
	keys := make([]string, len(uniq))
	for i, t := range uniq {
		keys[i] = t.Key()
	}
	return &Adornment{Triplets: uniq, key: strings.Join(keys, "&")}
}

// Key canonically identifies the adornment (set equality of triplets).
func (a *Adornment) Key() string { return a.key }

// TripletIndex returns the index of the triplet with the given key, or
// -1.
func (a *Adornment) TripletIndex(key string) int {
	for i, t := range a.Triplets {
		if t.Key() == key {
			return i
		}
	}
	return -1
}

// String renders the adornment compactly for diagnostics, showing for
// each triplet the constraint index and unmapped atom indices.
func (a *Adornment) String() string {
	var parts []string
	for _, t := range a.Triplets {
		parts = append(parts, t.Key())
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// imageOf computes the Image of a rule-space term on an atom: constant
// terms become Const images; variables become the set of argument
// positions of the atom holding that variable (nil if absent).
func imageOf(t ast.Term, atom ast.Atom) (Image, bool) {
	if t.IsConst() {
		tt := t
		return Image{Const: &tt}, true
	}
	var pos []int
	for i, arg := range atom.Args {
		if arg.IsVar() && arg.Name == t.Name {
			pos = append(pos, i)
		}
	}
	if len(pos) == 0 {
		return Image{}, false
	}
	return Image{Positions: pos}, true
}

// termAt resolves an Image back to a rule-space term using the atom
// the image was computed against (or any atom occurrence of the same
// predicate). Multi-position images must resolve to a single term; if
// the occurrence holds different terms at those positions, resolution
// fails (the subtree forces an equality the occurrence cannot express).
func (im Image) termAt(atom ast.Atom) (ast.Term, bool) {
	if im.Const != nil {
		return *im.Const, true
	}
	if len(im.Positions) == 0 {
		return ast.Term{}, false
	}
	t := atom.Args[im.Positions[0]]
	for _, p := range im.Positions[1:] {
		if !atom.Args[p].Equal(t) {
			return ast.Term{}, false
		}
	}
	return t, true
}
