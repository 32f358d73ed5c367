// Package unify provides substitutions, most-general unifiers, and
// homomorphism enumeration over the function-free atoms of package
// ast. Homomorphisms (containment mappings) are the engine underneath
// residue computation, adornment construction, and query containment.
package unify

import (
	"sort"
	"strings"

	"repro/internal/ast"
)

// Subst is a substitution: a finite map from variable names to terms.
// Bindings may chain through variables; Walk resolves a term to its
// final binding.
type Subst map[string]ast.Term

// Clone returns a copy of the substitution.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Walk resolves t through the substitution until it reaches a constant
// or an unbound variable.
func (s Subst) Walk(t ast.Term) ast.Term {
	for t.IsVar() {
		b, ok := s[t.Name]
		if !ok {
			return t
		}
		t = b
	}
	return t
}

// Bind adds the binding v -> t, where v must be an unbound variable
// name under s.
func (s Subst) Bind(v string, t ast.Term) { s[v] = t }

// Apply returns t with the substitution applied (fully resolved).
func (s Subst) Apply(t ast.Term) ast.Term { return s.Walk(t) }

// ApplyAtom returns a with the substitution applied to every argument.
func (s Subst) ApplyAtom(a ast.Atom) ast.Atom {
	out := a.Clone()
	for i, t := range out.Args {
		out.Args[i] = s.Walk(t)
	}
	return out
}

// ApplyCmp returns c with the substitution applied to both sides.
func (s Subst) ApplyCmp(c ast.Cmp) ast.Cmp {
	c.Left = s.Walk(c.Left)
	c.Right = s.Walk(c.Right)
	return c
}

// ApplyRule returns r with the substitution applied throughout.
func (s Subst) ApplyRule(r ast.Rule) ast.Rule { return ast.MapRule(r, s.Walk) }

// String renders the substitution deterministically, e.g. {X->1, Y->Z}.
func (s Subst) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteString("->")
		b.WriteString(s.Walk(ast.V(k)).String())
	}
	b.WriteByte('}')
	return b.String()
}

// unifyTerm extends s so that a and b become equal, or reports failure.
func unifyTerm(a, b ast.Term, s Subst) bool {
	a, b = s.Walk(a), s.Walk(b)
	switch {
	case a.IsVar() && b.IsVar():
		if a.Name != b.Name {
			s.Bind(a.Name, b)
		}
		return true
	case a.IsVar():
		s.Bind(a.Name, b)
		return true
	case b.IsVar():
		s.Bind(b.Name, a)
		return true
	default:
		return a.Equal(b)
	}
}

// UnifyArgs extends s in place so that the argument lists a and b
// become equal, and reports whether they unify; on failure s may hold
// part of the bindings. Where both sides are variables a's is bound,
// so a caller that wants one side's names to survive passes the other
// side as a.
func (s Subst) UnifyArgs(a, b []ast.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !unifyTerm(a[i], b[i], s) {
			return false
		}
	}
	return true
}

// Unify computes a most-general unifier of two atoms, extending the
// given substitution (which may be nil). It returns the extended
// substitution and whether unification succeeded. The input
// substitution is not modified.
func Unify(a, b ast.Atom, s Subst) (Subst, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return nil, false
	}
	out := Subst{}
	if s != nil {
		out = s.Clone()
	}
	if !out.UnifyArgs(a.Args, b.Args) {
		return nil, false
	}
	return out, true
}

// PatternVars returns the set of variables of the atoms, the pattern
// side of MatchBind.
func PatternVars(atoms ...ast.Atom) map[string]bool {
	pv := map[string]bool{}
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				pv[t.Name] = true
			}
		}
	}
	return pv
}

// MatchBind extends s to a one-way matcher from pattern to target — a
// substitution σ with σ(pattern) == target — binding only variables of
// the pattern-variable set pv (a walked-to term outside pv — a target
// variable already chosen as some pattern variable's image, or a
// constant — must equal its target term exactly), and appends the
// variables it bound to trail. Variables of the target are treated as
// constants, so distinct target variables stay distinct. The pattern's
// and target's variable sets must be disjoint (rename apart first; see
// ast.Renamer) — otherwise a shared name is treated as a pattern
// variable, and a binding of it to itself never resolves. On failure it
// unbinds them again, leaving s as it found it. A search binds, recurses,
// and hands the trail back to Undo, instead of cloning s per candidate.
func (s Subst) MatchBind(pattern, target ast.Atom, pv map[string]bool, trail []string) ([]string, bool) {
	if pattern.Pred != target.Pred || len(pattern.Args) != len(target.Args) {
		return trail, false
	}
	mark := len(trail)
	for i, p := range pattern.Args {
		p = s.Walk(p)
		if p.IsVar() && pv[p.Name] {
			s.Bind(p.Name, target.Args[i])
			trail = append(trail, p.Name)
		} else if !p.Equal(target.Args[i]) {
			return s.Undo(trail, mark), false
		}
	}
	return trail, true
}

// Undo unbinds the variables trail[mark:] recorded and returns
// trail[:mark].
func (s Subst) Undo(trail []string, mark int) []string {
	for _, v := range trail[mark:] {
		delete(s, v)
	}
	return trail[:mark]
}

// Homomorphisms enumerates every homomorphism from the conjunction src
// into the conjunction dst: substitutions σ over the variables of src
// such that for every atom a ∈ src, σ(a) is (structurally equal to) an
// atom of dst. The variable sets of src and dst must be disjoint
// (rename apart first). fn is called once per homomorphism, with a
// substitution of its own; returning false stops the enumeration
// early. Homomorphisms reports whether at least one homomorphism was
// found.
func Homomorphisms(src, dst []ast.Atom, fn func(Subst) bool) bool {
	pv := PatternVars(src...)
	s := Subst{}
	trail := make([]string, 0, len(pv))
	found := false
	var rec func(i int) bool // returns false to abort everything
	rec = func(i int) bool {
		if i == len(src) {
			found = true
			return fn(s.Clone())
		}
		for _, d := range dst {
			mark := len(trail)
			var ok bool
			if trail, ok = s.MatchBind(src[i], d, pv, trail); ok {
				more := rec(i + 1)
				trail = s.Undo(trail, mark)
				if !more {
					return false
				}
			}
		}
		return true
	}
	rec(0)
	return found
}

// Freeze replaces every variable of the atoms with a distinct fresh
// string constant (the canonical database construction). The returned
// map records the chosen constant for each variable.
func Freeze(atoms []ast.Atom) ([]ast.Atom, map[string]ast.Term) {
	frozen := map[string]ast.Term{}
	out := make([]ast.Atom, len(atoms))
	for i, a := range atoms {
		b := a.Clone()
		for j, t := range b.Args {
			if !t.IsVar() {
				continue
			}
			c, ok := frozen[t.Name]
			if !ok {
				c = ast.S("\x00frz_" + t.Name) // NUL prefix: cannot collide with user constants
				frozen[t.Name] = c
			}
			b.Args[j] = c
		}
		out[i] = b
	}
	return out, frozen
}
