package adorn

import (
	"slices"
	"strconv"
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

// appendKey appends the image's canonical rendering to dst.
func (im Image) appendKey(dst []byte) []byte {
	if im.Const != nil {
		return im.Const.AppendKey(append(dst, 'c'))
	}
	dst = append(dst, 'p')
	for i, p := range im.Positions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(p), 10)
	}
	return dst
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
func (t Triplet) Key() string { return string(t.AppendKey(nil)) }

// AppendKey appends the triplet's Key to dst and returns the extended
// buffer.
func (t Triplet) AppendKey(dst []byte) []byte {
	return appendTripletKey(dst, t.IC, t.Unmapped, t.Sigma, Image.appendKey)
}

// appendTripletKey is the one writer of a triplet key, for node-space
// triplets (σ images) and rule-space ones (σ terms) alike:
// "I<ic>|<unmapped,...>|<var>=<value>;..." with the variables sorted.
// The format orders a node's triplets, and so numbers adornments and
// names the specialized predicates of the optimizer's output.
func appendTripletKey[V any](dst []byte, ic int, unmapped []int, sigma map[string]V, appendValue func(V, []byte) []byte) []byte {
	dst = append(strconv.AppendInt(append(dst, 'I'), int64(ic), 10), '|')
	for i, u := range unmapped {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(u), 10)
	}
	dst = append(dst, '|')
	var arr [8]string
	vars := arr[:0]
	for v := range sigma {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	for i, v := range vars {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = appendValue(sigma[v], append(append(dst, v...), '='))
	}
	return dst
}

// Adornment is a set of triplets attached to a (specialized)
// predicate, canonically ordered by Key.
type Adornment struct {
	Triplets []Triplet
	keys     []string // keys[i] is Triplets[i].Key()
	key      string
}

// newAdornment canonicalizes and deduplicates the triplets, whose keys
// are keys.
func newAdornment(ts []Triplet, keys []string) *Adornment {
	idx := make([]int, 0, len(ts))
	seen := make(map[string]bool, len(ts))
	for i, k := range keys {
		if !seen[k] {
			seen[k] = true
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(i, j int) int { return strings.Compare(keys[i], keys[j]) })
	a := &Adornment{Triplets: make([]Triplet, len(idx)), keys: make([]string, len(idx))}
	for i, ti := range idx {
		a.Triplets[i], a.keys[i] = ts[ti], keys[ti]
	}
	a.key = strings.Join(a.keys, "&")
	return a
}

// Key canonically identifies the adornment (set equality of triplets).
func (a *Adornment) Key() string { return a.key }

// TripletIndex returns the index of the triplet with the given key, or
// -1.
func (a *Adornment) TripletIndex(key string) int {
	for i, k := range a.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// String renders the adornment compactly for diagnostics, showing for
// each triplet the constraint index and unmapped atom indices.
func (a *Adornment) String() string {
	return "{" + strings.Join(a.keys, " ") + "}"
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
