// Package order decides satisfiability and implication for
// conjunctions of order atoms (γ θ δ with θ ∈ {<, <=, >, >=, =, !=})
// interpreted over a dense total order containing all constants.
//
// The solver builds a constraint graph whose nodes are the distinct
// variables and constants (by value: Term.Equal), closes it
// transitively once per Set, and then checks for contradictions: a
// strict cycle — which covers two distinct constants forced equal and
// a class squeezed between constant bounds that leave it empty — or a
// ≠ pair forced equal. Density of the order guarantees everything else
// is realizable.
//
// Implication is decided by refutation: C ⊨ a iff C ∧ ¬a is
// unsatisfiable, which is sound and complete over a dense order
// because the negation of each comparison operator is again a single
// comparison. The refutation does not rebuild anything: it extends the
// cached closure of C by the one edge of ¬a.
package order

import (
	"sort"
	"strings"

	"repro/internal/ast"
)

// Set is a conjunction of order atoms. The zero value is the empty
// (trivially satisfiable) conjunction.
//
// A Set is not safe for concurrent use, not even for reads:
// Satisfiable, Implies, Contradicts and ForcedEqualities fill (and
// Implies/Contradicts scribble scratch rows into) a cache of the closed
// constraint graph that lives until the next Add. Give each goroutine
// its own Set (Clone does not share the cache).
type Set struct {
	atoms []ast.Cmp

	// The closed constraint graph of atoms, valid while closed is set.
	// Nodes are the distinct terms of the atoms (Term.Equal decides
	// identity, so 0 and -0 are one node) in order of first appearance.
	closed bool
	sat    bool
	terms  []ast.Term
	// With n = len(terms), adj[u*(n+2)+v] is the strongest constraint
	// u → v the conjunction forces: 0 = none, 1 = u <= v, 2 = u < v.
	// Rows and columns n and n+1 are scratch for the operands of a
	// queried atom that the conjunction does not mention.
	adj []uint8
	neq [][2]int // pairs constrained to be different
}

// NewSet returns a Set holding the given atoms.
func NewSet(atoms ...ast.Cmp) *Set {
	s := &Set{atoms: make([]ast.Cmp, 0, len(atoms))}
	for _, a := range atoms {
		s.Add(a)
	}
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

// Add appends an atom to the conjunction (duplicates are ignored).
func (s *Set) Add(c ast.Cmp) {
	for _, e := range s.atoms {
		if sameAtom(e, c) {
			return
		}
	}
	s.atoms = append(s.atoms, c)
	s.closed = false
}

// AddAll appends all atoms of the slice.
func (s *Set) AddAll(cs []ast.Cmp) {
	for _, c := range cs {
		s.Add(c)
	}
}

// Atoms returns the atoms of the conjunction (shared slice; callers
// must not modify it).
func (s *Set) Atoms() []ast.Cmp { return s.atoms }

// Clone returns a copy of the set.
func (s *Set) Clone() *Set {
	return &Set{atoms: append([]ast.Cmp(nil), s.atoms...)}
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

func (s *Set) at(u, v int) uint8   { return s.adj[u*(len(s.terms)+2)+v] }
func (s *Set) reach(u, v int) bool { return u == v || s.at(u, v) > 0 }
func (s *Set) eq(u, v int) bool    { return s.reach(u, v) && s.reach(v, u) }

func (s *Set) edge(u, v int, strength uint8) {
	if e := &s.adj[u*(len(s.terms)+2)+v]; *e < strength {
		*e = strength
	}
}

// close builds the constraint graph of the conjunction — the atoms'
// edges plus the implicit total order among the constants that appear
// — closes it transitively and decides satisfiability, all into
// storage kept from the previous build.
func (s *Set) close() {
	if s.closed {
		return
	}
	s.terms, s.neq = s.terms[:0], s.neq[:0]
	for _, a := range s.atoms {
		for _, t := range [2]ast.Term{a.Left, a.Right} {
			if s.find(t) < 0 {
				s.terms = append(s.terms, t)
			}
		}
	}
	n := len(s.terms)
	w := n + 2
	if cap(s.adj) < w*w {
		s.adj = make([]uint8, w*w)
	}
	s.adj = s.adj[:w*w]
	clear(s.adj)
	for _, a := range s.atoms {
		a = orient(a)
		u, v := s.find(a.Left), s.find(a.Right)
		switch a.Op {
		case ast.LT:
			s.edge(u, v, 2)
		case ast.LE:
			s.edge(u, v, 1)
		case ast.EQ:
			s.edge(u, v, 1)
			s.edge(v, u, 1)
		case ast.NE:
			s.neq = append(s.neq, [2]int{u, v})
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if s.terms[a].IsVar() || s.terms[b].IsVar() {
				continue
			}
			if s.terms[a].Compare(s.terms[b]) < 0 {
				s.edge(a, b, 2)
			} else {
				s.edge(b, a, 2)
			}
		}
	}
	// Floyd–Warshall over edge strengths: a path is strict if any hop is.
	for k := 0; k < n; k++ {
		rk := s.adj[k*w : k*w+n]
		for u := 0; u < n; u++ {
			ru := s.adj[u*w : u*w+n]
			uk := ru[k]
			if uk == 0 {
				continue
			}
			for v, kv := range rk {
				if kv > 0 && ru[v] < max(uk, kv) {
					ru[v] = max(uk, kv)
				}
			}
		}
	}
	// Unsatisfiable iff some u < u (which covers two distinct constants
	// forced equal, by their implicit strict edge) or a != pair is forced
	// equal. Everything else is realizable over a dense order: take the
	// strict partial order on equivalence classes, extend it to a linear
	// order, and embed the classes into the rationals respecting the
	// constants' positions; density provides room between and beyond
	// all constants.
	s.sat = true
	for u := 0; u < n; u++ {
		if s.at(u, u) == 2 {
			s.sat = false
		}
	}
	for _, p := range s.neq {
		if s.eq(p[0], p[1]) {
			s.sat = false
		}
	}
	s.closed = true
}

// Satisfiable reports whether some assignment of the variables into
// the dense order satisfies every atom of the conjunction.
func (s *Set) Satisfiable() bool {
	s.close()
	return s.sat
}

// scratch makes slot (n or n+1) the node of a term the conjunction
// does not mention. A variable is unconstrained; a constant sits
// strictly between its nearest neighbours among the constants present,
// and inherits everything they reach or are reached from.
func (s *Set) scratch(slot int, t ast.Term) {
	n := len(s.terms)
	w := n + 2
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
	s.close()
	if !s.sat {
		return true
	}
	c = orient(c)
	n := len(s.terms)
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
// base, calling fn with each one as a copy of base plus the atoms that
// pin it (t1 = t2 inside a group, t1 < t2 between consecutive groups).
// fn returns false to stop early. Built recursively: each next term
// joins an existing group or opens a new one at every gap.
func Linearizations(terms []ast.Term, base *Set, fn func(*Set) bool) {
	var rec func(i int, groups [][]ast.Term) bool
	rec = func(i int, groups [][]ast.Term) bool {
		if i == len(terms) {
			lin := base.Clone()
			for gi, g := range groups {
				for k := 1; k < len(g); k++ {
					lin.Add(ast.NewCmp(g[0], ast.EQ, g[k]))
				}
				if gi+1 < len(groups) {
					lin.Add(ast.NewCmp(g[0], ast.LT, groups[gi+1][0]))
				}
			}
			if !lin.Satisfiable() {
				return true // inconsistent with base; skip
			}
			return fn(lin)
		}
		t := terms[i]
		for gi := range groups {
			ng := make([][]ast.Term, len(groups))
			copy(ng, groups)
			ng[gi] = append(append([]ast.Term{}, groups[gi]...), t)
			if !rec(i+1, ng) {
				return false
			}
		}
		for pos := 0; pos <= len(groups); pos++ {
			ng := make([][]ast.Term, 0, len(groups)+1)
			ng = append(ng, groups[:pos]...)
			ng = append(ng, []ast.Term{t})
			ng = append(ng, groups[pos:]...)
			if !rec(i+1, ng) {
				return false
			}
		}
		return true
	}
	rec(0, nil)
}

// EvalGround evaluates a conjunction whose atoms are all ground,
// reporting whether every atom holds.
func EvalGround(cs []ast.Cmp) bool {
	for _, c := range cs {
		if c.Left.IsVar() || c.Right.IsVar() {
			panic("order: EvalGround on non-ground atom " + c.String())
		}
		if !c.Eval() {
			return false
		}
	}
	return true
}
