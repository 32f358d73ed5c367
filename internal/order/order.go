// Package order decides satisfiability and implication for
// conjunctions of order atoms (γ θ δ with θ ∈ {<, <=, >, >=, =, !=})
// interpreted over a dense total order containing all constants.
//
// The solver keeps a constraint graph whose nodes are the distinct
// variables and constants (by value: Term.Equal), transitively closed
// at all times: each Add relaxes every path through its one new edge,
// and a new constant arrives with its place in the constants' order.
// A conjunction is unsatisfiable iff the graph has a strict cycle —
// which covers two distinct constants forced equal and a class
// squeezed between constant bounds that leave it empty — or a ≠ pair
// forced equal. Density of the order guarantees everything else is
// realizable.
//
// Implication is decided by refutation: C ⊨ a iff C ∧ ¬a is
// unsatisfiable, which is sound and complete over a dense order
// because the negation of each comparison operator is again a single
// comparison. The refutation does not rebuild anything: it reads the
// closure of C around the one edge of ¬a.
package order

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/ast"
)

// Set is a conjunction of order atoms. The zero value is the empty
// (trivially satisfiable) conjunction.
//
// A Set is not safe for concurrent use, not even for reads: Implies
// and Contradicts scribble scratch rows into its closure. Give each
// goroutine its own Set (Clone shares nothing).
type Set struct {
	atoms []ast.Cmp
	unsat bool

	// The closed constraint graph of atoms, kept only while the
	// conjunction is satisfiable. Nodes are the distinct terms of the
	// atoms (Term.Equal decides identity, so 0 and -0 are one node) in
	// order of first appearance.
	terms []ast.Term
	// adj[u*w+v] is the strongest constraint u → v the conjunction
	// forces: 0 = none, 1 = u <= v, 2 = u < v. The stride w is at least
	// len(terms)+2: rows and columns len(terms) and len(terms)+1 are
	// scratch for the operands of a queried atom that the conjunction
	// does not mention.
	w   int
	adj []uint8
	neq [][2]int // pairs constrained to be different
}

// NewSet returns a Set holding the given atoms.
func NewSet(atoms ...ast.Cmp) *Set {
	s := &Set{atoms: make([]ast.Cmp, 0, len(atoms)), terms: make([]ast.Term, 0, 2*len(atoms))}
	s.AddAll(atoms)
	return s
}

// orient turns > and >= into < and <= with swapped operands.
func orient(c ast.Cmp) ast.Cmp {
	if c.Op == ast.GT || c.Op == ast.GE {
		return c.Flip()
	}
	return c
}

// sameAtom reports whether a and b are one constraint up to operand
// order: x > y is y < x, and = and != are symmetric.
func sameAtom(a, b ast.Cmp) bool {
	if a.Op != b.Op {
		if a.Op != b.Op.Flip() {
			return false
		}
		b = b.Flip()
	}
	if a.Left.Equal(b.Left) && a.Right.Equal(b.Right) {
		return true
	}
	return (a.Op == ast.EQ || a.Op == ast.NE) && a.Left.Equal(b.Right) && a.Right.Equal(b.Left)
}

// Add appends an atom to the conjunction (duplicates are ignored) and
// extends the closure by its edges, in O(n²) for n terms.
func (s *Set) Add(c ast.Cmp) {
	for _, e := range s.atoms {
		if sameAtom(e, c) {
			return
		}
	}
	s.atoms = append(s.atoms, c)
	if s.unsat {
		return // stays unsatisfiable; the graph is no longer read
	}
	c = orient(c)
	u, v := s.node(c.Left), s.node(c.Right)
	switch c.Op {
	case ast.LT:
		s.relax(u, v, 2)
	case ast.LE:
		s.relax(u, v, 1)
	case ast.EQ:
		s.relax(u, v, 1)
		s.relax(v, u, 1)
	case ast.NE:
		s.neq = append(s.neq, [2]int{u, v})
	}
	for _, p := range s.neq {
		if s.eq(p[0], p[1]) {
			s.unsat = true
		}
	}
}

// AddAll appends all atoms of the slice.
func (s *Set) AddAll(cs []ast.Cmp) {
	for _, c := range cs {
		s.Add(c)
	}
}

// Reset empties the set, keeping its storage for the atoms added
// next. A slice returned by Atoms before the Reset is overwritten.
func (s *Set) Reset() {
	s.atoms, s.terms, s.neq, s.unsat = s.atoms[:0], s.terms[:0], s.neq[:0], false
}

// Atoms returns the atoms of the conjunction (shared slice; callers
// must not modify it).
func (s *Set) Atoms() []ast.Cmp { return s.atoms }

// Clone returns a copy of the set, closure included.
func (s *Set) Clone() *Set {
	return &Set{
		atoms: slices.Clone(s.atoms), unsat: s.unsat,
		terms: slices.Clone(s.terms), w: s.w, adj: slices.Clone(s.adj), neq: slices.Clone(s.neq),
	}
}

// Len returns the number of distinct atoms.
func (s *Set) Len() int { return len(s.atoms) }

// String renders the conjunction deterministically.
func (s *Set) String() string {
	parts := make([]string, len(s.atoms))
	for i, a := range s.atoms {
		parts[i] = a.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// find returns the node of t, or -1.
func (s *Set) find(t ast.Term) int {
	for i, o := range s.terms {
		if o.Equal(t) {
			return i
		}
	}
	return -1
}

func (s *Set) at(u, v int) uint8   { return s.adj[u*s.w+v] }
func (s *Set) reach(u, v int) bool { return u == v || s.at(u, v) > 0 }
func (s *Set) eq(u, v int) bool    { return s.reach(u, v) && s.reach(v, u) }

func (s *Set) edge(u, v int, strength uint8) {
	if e := &s.adj[u*s.w+v]; *e < strength {
		*e = strength
	}
}

// reserve grows the matrix so that n nodes and the two scratch slots
// fit, keeping the closure among the present nodes.
func (s *Set) reserve(n int) {
	if n+2 <= s.w {
		return
	}
	w := max(2*s.w, n+2, 8)
	adj := make([]uint8, w*w)
	for u := range s.terms {
		copy(adj[u*w:u*w+len(s.terms)], s.adj[u*s.w:u*s.w+len(s.terms)])
	}
	s.w, s.adj = w, adj
}

// node returns the node of t, adding it if absent. A new node has no
// edges but the constants' own order, which scratch computes exactly:
// it creates no path between older nodes (the new constant's
// neighbours are already ordered directly), so the closure stays
// closed.
func (s *Set) node(t ast.Term) int {
	if u := s.find(t); u >= 0 {
		return u
	}
	n := len(s.terms)
	s.reserve(n + 1)
	s.scratch(n, t)
	s.terms = append(s.terms, t)
	return n
}

// relax closes the graph over a new edge u → v of the given
// strength: every a that reaches u now reaches every b that v reaches,
// as strongly as the strongest hop. One pass suffices while the
// conjunction stays satisfiable (a path using the edge twice has a
// cycle through it, and a cycle that is not strict adds no strength);
// a strict cycle through the edge shows as u < u.
func (s *Set) relax(u, v int, strength uint8) {
	n, w := len(s.terms), s.w
	if s.at(u, v) >= strength || u == v && strength == 1 {
		return // already implied
	}
	rv := s.adj[v*w : v*w+n]
	for a := 0; a < n; a++ {
		au := s.adj[a*w+u]
		if au == 0 && a != u {
			continue
		}
		ra, hop := s.adj[a*w:a*w+n], max(au, strength)
		for b, vb := range rv {
			if vb == 0 && b != v {
				continue
			}
			if x := max(hop, vb); ra[b] < x {
				ra[b] = x
			}
		}
	}
	if s.at(u, u) == 2 {
		s.unsat = true
	}
}

// Satisfiable reports whether some assignment of the variables into
// the dense order satisfies every atom of the conjunction.
func (s *Set) Satisfiable() bool { return !s.unsat }

// scratch makes slot (n or n+1) the node of a term the conjunction
// does not mention. A variable is unconstrained; a constant sits
// strictly between its nearest neighbours among the constants present,
// and inherits everything they reach or are reached from.
func (s *Set) scratch(slot int, t ast.Term) {
	n, w := len(s.terms), s.w
	for i := 0; i < w; i++ {
		s.adj[slot*w+i], s.adj[i*w+slot] = 0, 0
	}
	if t.IsVar() {
		return
	}
	lo, hi := -1, -1 // greatest constant below t, least constant above
	for c, o := range s.terms {
		if o.IsVar() {
			continue
		}
		if o.Compare(t) < 0 {
			if lo < 0 || s.at(lo, c) > 0 {
				lo = c
			}
		} else if hi < 0 || s.at(c, hi) > 0 {
			hi = c
		}
	}
	for b := 0; b < n; b++ {
		if lo >= 0 && s.reach(b, lo) {
			s.adj[b*w+slot] = 2
		}
		if hi >= 0 && s.reach(hi, b) {
			s.adj[slot*w+b] = 2
		}
	}
}

// unsatWith reports whether the conjunction together with c is
// unsatisfiable. The closed graph is extended by c alone: a cycle or a
// forced equality that c creates must pass through c's own edge, so
// each case is a few lookups around its endpoints.
func (s *Set) unsatWith(c ast.Cmp) bool {
	if s.unsat {
		return true
	}
	c = orient(c)
	n := len(s.terms)
	s.reserve(n)
	u, v := s.find(c.Left), s.find(c.Right)
	if u < 0 {
		u = n
		s.scratch(u, c.Left)
	}
	if v < 0 && u == n && c.Left.Equal(c.Right) {
		v = u
	} else if v < 0 {
		v = n + 1
		s.scratch(v, c.Right)
		if u == n && c.Left.IsConst() && c.Right.IsConst() {
			if c.Left.Compare(c.Right) < 0 {
				s.edge(u, v, 2)
			} else {
				s.edge(v, u, 2)
			}
		}
	}
	switch c.Op {
	case ast.LT:
		return s.reach(v, u)
	case ast.NE:
		return s.eq(u, v)
	case ast.LE:
		if !s.reach(v, u) {
			return false // no cycle through u → v, so nothing new is forced
		}
	}
	// u <= v closing a cycle, or u = v: the two become one class.
	if s.at(u, v) == 2 || s.at(v, u) == 2 {
		return true
	}
	via := func(a, b int) bool {
		return s.reach(a, b) || s.reach(a, u) && s.reach(v, b) || s.reach(a, v) && s.reach(u, b)
	}
	for _, p := range s.neq {
		if via(p[0], p[1]) && via(p[1], p[0]) {
			return true
		}
	}
	return false
}

// Implies reports whether the conjunction logically entails the given
// atom over dense orders: s ⊨ c iff s ∧ ¬c is unsatisfiable (so an
// unsatisfiable conjunction implies everything).
// The empty conjunction implies only tautologies (e.g. X <= X, 1 < 2).
func (s *Set) Implies(c ast.Cmp) bool { return s.unsatWith(c.Negate()) }

// ImpliesAll reports whether every atom of cs is implied.
func (s *Set) ImpliesAll(cs []ast.Cmp) bool {
	for _, c := range cs {
		if !s.Implies(c) {
			return false
		}
	}
	return true
}

// Contradicts reports whether adding c makes the conjunction
// unsatisfiable.
func (s *Set) Contradicts(c ast.Cmp) bool { return s.unsatWith(c) }

// ForcedEqualities returns the pairs of distinct terms the conjunction
// forces to be equal, as a list of (representative, term) pairs: each
// term is paired with the canonical representative of its equivalence
// class. Variables map to either a constant in their class (preferred)
// or the lexicographically least variable. The result is deterministic.
func (s *Set) ForcedEqualities() map[string]ast.Term {
	out := map[string]ast.Term{}
	if !s.Satisfiable() {
		return out
	}
	for u, t := range s.terms {
		if t.IsConst() {
			continue
		}
		rep := t
		for v, o := range s.terms {
			if !s.eq(u, v) {
				continue
			}
			if o.IsConst() {
				rep = o // the only constant of a satisfiable class
				break
			}
			if o.Name < rep.Name {
				rep = o
			}
		}
		if !rep.Equal(t) {
			out[t.Name] = rep
		}
	}
	return out
}

// Linearizations enumerates the total preorders of terms consistent with
// base, calling fn with each one as its groups in ascending order: the
// terms of a group are equal, every group is below the next, and each
// group lists its terms in the order of terms. fn must not retain
// groups, and returns false to stop early. terms must include every
// term of base's atoms.
//
// The preorders are built recursively: each next term joins an existing
// group or opens a new one at every gap. A placement is extended only
// while it is consistent so far — every base atom whose operands are
// both placed holds on the group ranks, and the placed constants are
// in their own order. That is exact: inserting terms never reorders
// placed ones, so a contradiction stays one, and a complete preorder
// passing every check is consistent with base. fn therefore sees the
// same preorders in the same order as a filter over all of them.
func Linearizations(terms []ast.Term, base *Set, fn func(groups [][]ast.Term) bool) {
	index := func(t ast.Term) int {
		for i, o := range terms {
			if o.Equal(t) {
				return i
			}
		}
		panic("order: Linearizations terms do not include " + t.String())
	}
	// checks[i] holds the rank comparisons that become decidable when
	// terms[i] is placed: a op b must hold on the ranks of a and b.
	type check struct {
		a, b int
		op   ast.CmpOp
	}
	checks := make([][]check, len(terms))
	for _, c := range base.atoms {
		a, b := index(c.Left), index(c.Right)
		last := max(a, b)
		checks[last] = append(checks[last], check{a, b, c.Op})
	}
	for i, t := range terms {
		for j, o := range terms[:i] {
			switch {
			case t.IsConst() && o.IsConst():
				checks[i] = append(checks[i], check{j, i, constOrder(o, t)})
			case t.Equal(o):
				checks[i] = append(checks[i], check{j, i, ast.EQ})
			}
		}
	}
	rank := make([]int, len(terms))
	consistent := func(i int) bool {
		for _, c := range checks[i] {
			if !c.op.Holds(rank[c.a] - rank[c.b]) {
				return false
			}
		}
		return true
	}
	var groups [][]ast.Term
	var rec func(i, g int) bool
	rec = func(i, g int) bool {
		if i == len(terms) {
			groups = slices.Grow(groups[:0], g)[:g]
			for k := range groups {
				groups[k] = groups[k][:0]
			}
			for j, t := range terms {
				groups[rank[j]] = append(groups[rank[j]], t)
			}
			return fn(groups)
		}
		for gi := 0; gi < g; gi++ {
			rank[i] = gi
			if consistent(i) && !rec(i+1, g) {
				return false
			}
		}
		for pos := 0; pos <= g; pos++ {
			for j := range rank[:i] {
				if rank[j] >= pos {
					rank[j]++
				}
			}
			rank[i] = pos
			more := !consistent(i) || rec(i+1, g+1)
			for j := range rank[:i] {
				if rank[j] > pos {
					rank[j]--
				}
			}
			if !more {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// constOrder is the relation between two constants: <, = or >.
func constOrder(a, b ast.Term) ast.CmpOp {
	switch c := a.Compare(b); {
	case c < 0:
		return ast.LT
	case c > 0:
		return ast.GT
	}
	return ast.EQ
}
