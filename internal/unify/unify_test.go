package unify

import (
	"testing"

	"repro/internal/ast"
)

func atom(pred string, args ...ast.Term) ast.Atom { return ast.NewAtom(pred, args...) }

func TestSubstWalkChains(t *testing.T) {
	s := Subst{"X": ast.V("Y"), "Y": ast.N(3)}
	if got := s.Walk(ast.V("X")); !got.Equal(ast.N(3)) {
		t.Fatalf("Walk(X) = %v", got)
	}
	if got := s.Walk(ast.V("Z")); !got.Equal(ast.V("Z")) {
		t.Fatalf("Walk(unbound) = %v", got)
	}
	if got := s.Walk(ast.N(7)); !got.Equal(ast.N(7)) {
		t.Fatalf("Walk(const) = %v", got)
	}
}

func TestUnifyBasics(t *testing.T) {
	// p(X, 1) ≗ p(2, Y) → X=2, Y=1
	s, ok := Unify(atom("p", ast.V("X"), ast.N(1)), atom("p", ast.N(2), ast.V("Y")), nil)
	if !ok {
		t.Fatal("should unify")
	}
	if !s.Walk(ast.V("X")).Equal(ast.N(2)) || !s.Walk(ast.V("Y")).Equal(ast.N(1)) {
		t.Fatalf("bindings wrong: %v", s)
	}
}

func TestUnifyFailures(t *testing.T) {
	if _, ok := Unify(atom("p", ast.N(1)), atom("q", ast.N(1)), nil); ok {
		t.Error("different predicates must not unify")
	}
	if _, ok := Unify(atom("p", ast.N(1)), atom("p", ast.N(1), ast.N(2)), nil); ok {
		t.Error("different arities must not unify")
	}
	if _, ok := Unify(atom("p", ast.N(1)), atom("p", ast.N(2)), nil); ok {
		t.Error("distinct constants must not unify")
	}
}

func TestUnifySharedVariables(t *testing.T) {
	// p(X, X) ≗ p(1, Y) → X=1, Y=1
	s, ok := Unify(atom("p", ast.V("X"), ast.V("X")), atom("p", ast.N(1), ast.V("Y")), nil)
	if !ok {
		t.Fatal("should unify")
	}
	if !s.Walk(ast.V("Y")).Equal(ast.N(1)) {
		t.Fatalf("Y should resolve to 1, got %v", s.Walk(ast.V("Y")))
	}
	// p(X, X) ≗ p(1, 2) must fail.
	if _, ok := Unify(atom("p", ast.V("X"), ast.V("X")), atom("p", ast.N(1), ast.N(2)), nil); ok {
		t.Fatal("conflicting bindings must fail")
	}
}

func TestUnifyDoesNotMutateInput(t *testing.T) {
	base := Subst{"Z": ast.N(9)}
	s, ok := Unify(atom("p", ast.V("X")), atom("p", ast.N(1)), base)
	if !ok {
		t.Fatal("should unify")
	}
	if len(base) != 1 {
		t.Fatal("input substitution mutated")
	}
	if !s.Walk(ast.V("Z")).Equal(ast.N(9)) {
		t.Fatal("existing binding lost")
	}
}

// match is a one-way MatchBind from pattern into target over a fresh
// substitution.
func match(pattern, target ast.Atom) (Subst, bool) {
	s := Subst{}
	_, ok := s.MatchBind(pattern, target, PatternVars(pattern), nil)
	return s, ok
}

func TestMatchOneWay(t *testing.T) {
	// Pattern a(X, Y) matches target a(U, V) mapping X->U, Y->V.
	s, ok := match(atom("a", ast.V("X"), ast.V("Y")), atom("a", ast.V("U"), ast.V("V")))
	if !ok {
		t.Fatal("should match")
	}
	if !s.Walk(ast.V("X")).Equal(ast.V("U")) {
		t.Fatalf("X -> %v", s.Walk(ast.V("X")))
	}
	// One-way: target variables must not be bound.
	if _, bound := s["U"]; bound {
		t.Fatal("target variable was bound")
	}
	// Pattern a(X, X) must NOT match a(U, V): U and V are distinct
	// "constants" from the pattern's point of view.
	if _, ok := match(atom("a", ast.V("X"), ast.V("X")), atom("a", ast.V("U"), ast.V("V"))); ok {
		t.Fatal("repeated pattern variable must not match distinct target variables")
	}
	// But a(X, Y) matches a(U, U) with X=Y=U.
	if _, ok := match(atom("a", ast.V("X"), ast.V("Y")), atom("a", ast.V("U"), ast.V("U"))); !ok {
		t.Fatal("should match with both mapped to U")
	}
	// Constants in the pattern must match exactly.
	if _, ok := match(atom("a", ast.N(1)), atom("a", ast.N(2))); ok {
		t.Fatal("constant mismatch must fail")
	}
	if _, ok := match(atom("a", ast.N(1)), atom("a", ast.V("U"))); ok {
		t.Fatal("pattern constant cannot match a target variable")
	}
}

// TestMatchBindUndo: MatchBind binds in place and records what it
// bound, a failed match leaves the substitution as it found it, and
// Undo unbinds exactly the variables recorded after its mark.
func TestMatchBindUndo(t *testing.T) {
	pat := atom("a", ast.V("X"), ast.V("Y"), ast.V("X"))
	pv := PatternVars(pat)
	s := Subst{"Z": ast.N(7)}
	// Fails at the third argument, after binding X and Y.
	trail, ok := s.MatchBind(pat, atom("a", ast.V("U"), ast.V("V"), ast.V("W")), pv, nil)
	if ok || len(trail) != 0 || len(s) != 1 {
		t.Fatalf("failed match: ok=%v trail=%v s=%v, want s untouched", ok, trail, s)
	}
	trail, ok = s.MatchBind(pat, atom("a", ast.V("U"), ast.N(1), ast.V("U")), pv, trail)
	if !ok || len(trail) != 2 || !s.Walk(ast.V("X")).Equal(ast.V("U")) || !s.Walk(ast.V("Y")).Equal(ast.N(1)) {
		t.Fatalf("match: ok=%v trail=%v s=%v", ok, trail, s)
	}
	trail = s.Undo(trail, 0)
	if len(trail) != 0 || len(s) != 1 || !s["Z"].Equal(ast.N(7)) {
		t.Fatalf("after Undo: trail=%v s=%v, want only Z bound", trail, s)
	}
}

func TestHomomorphismsEnumeration(t *testing.T) {
	// Map {e(X,Y), e(Y,Z)} into {e(a,b), e(b,c)}.
	src := []ast.Atom{
		atom("e", ast.V("X"), ast.V("Y")),
		atom("e", ast.V("Y"), ast.V("Z")),
	}
	dst := []ast.Atom{
		atom("e", ast.S("a"), ast.S("b")),
		atom("e", ast.S("b"), ast.S("c")),
	}
	var homs []Subst
	Homomorphisms(src, dst, func(s Subst) bool {
		homs = append(homs, s)
		return true
	})
	// Only one: X->a, Y->b, Z->c. (e(b,c) then needs e(c,?) — absent.)
	if len(homs) != 1 {
		t.Fatalf("got %d homomorphisms, want 1: %v", len(homs), homs)
	}
	h := homs[0]
	if !h.Walk(ast.V("X")).Equal(ast.S("a")) || !h.Walk(ast.V("Z")).Equal(ast.S("c")) {
		t.Fatalf("hom wrong: %v", h)
	}
}

// hasHom reports whether any homomorphism maps src into dst.
func hasHom(src, dst []ast.Atom) bool {
	return Homomorphisms(src, dst, func(Subst) bool { return false })
}

func TestHomomorphismsFolding(t *testing.T) {
	// {e(X,Y)} into {e(a,a)}: X and Y may collapse to the same value.
	src := []ast.Atom{atom("e", ast.V("X"), ast.V("Y"))}
	dst := []ast.Atom{atom("e", ast.S("a"), ast.S("a"))}
	if !hasHom(src, dst) {
		t.Fatal("folding homomorphism must exist")
	}
	// Reverse direction: {e(X,X)} into {e(a,b)} must fail.
	if hasHom([]ast.Atom{atom("e", ast.V("X"), ast.V("X"))}, []ast.Atom{atom("e", ast.S("a"), ast.S("b"))}) {
		t.Fatal("e(X,X) must not map into e(a,b)")
	}
}

func TestHomomorphismsCount(t *testing.T) {
	// {e(X,Y)} into a 2-cycle {e(a,b), e(b,a)}: two homomorphisms.
	src := []ast.Atom{atom("e", ast.V("X"), ast.V("Y"))}
	dst := []ast.Atom{atom("e", ast.S("a"), ast.S("b")), atom("e", ast.S("b"), ast.S("a"))}
	n := 0
	Homomorphisms(src, dst, func(Subst) bool { n++; return true })
	if n != 2 {
		t.Fatalf("got %d homomorphisms, want 2", n)
	}
	// Path of length 2 into the 2-cycle: e(X,Y), e(Y,Z) has 2 homs
	// (a→b→a and b→a→b).
	src2 := []ast.Atom{atom("e", ast.V("X"), ast.V("Y")), atom("e", ast.V("Y"), ast.V("Z"))}
	n2 := 0
	Homomorphisms(src2, dst, func(Subst) bool { n2++; return true })
	if n2 != 2 {
		t.Fatalf("got %d homomorphisms, want 2", n2)
	}
}

func TestHomomorphismsEarlyStop(t *testing.T) {
	src := []ast.Atom{atom("e", ast.V("X"), ast.V("Y"))}
	dst := []ast.Atom{atom("e", ast.S("a"), ast.S("b")), atom("e", ast.S("b"), ast.S("a"))}
	n := 0
	Homomorphisms(src, dst, func(Subst) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop failed: callback ran %d times", n)
	}
}

func TestHomomorphismsEmptySource(t *testing.T) {
	// The empty conjunction maps into anything, exactly once.
	n := 0
	ok := Homomorphisms(nil, []ast.Atom{atom("e", ast.S("a"), ast.S("b"))}, func(Subst) bool { n++; return true })
	if !ok || n != 1 {
		t.Fatalf("empty source: ok=%v n=%d", ok, n)
	}
}

func TestHomomorphismsIntoTargetWithVariables(t *testing.T) {
	// Symbolic targets: map ic atoms into a rule body with variables.
	// ic: a(X, Y), b(Y, Z); body: a(U, V), b(V, W) — one hom.
	src := []ast.Atom{atom("a", ast.V("X"), ast.V("Y")), atom("b", ast.V("Y"), ast.V("Z"))}
	dst := []ast.Atom{atom("a", ast.V("U"), ast.V("V")), atom("b", ast.V("V"), ast.V("W"))}
	n := 0
	Homomorphisms(src, dst, func(s Subst) bool {
		n++
		if !s.Walk(ast.V("Y")).Equal(ast.V("V")) {
			t.Errorf("Y must map to V, got %v", s.Walk(ast.V("Y")))
		}
		return true
	})
	if n != 1 {
		t.Fatalf("got %d homs, want 1", n)
	}
	// body with broken join: a(U, V), b(V2, W) — no hom.
	dst2 := []ast.Atom{atom("a", ast.V("U"), ast.V("V")), atom("b", ast.V("V2"), ast.V("W"))}
	if hasHom(src, dst2) {
		t.Fatal("join variable mismatch must prevent homomorphism")
	}
}

func TestApplyRule(t *testing.T) {
	r := ast.Rule{
		Head: atom("p", ast.V("X"), ast.V("Y")),
		Pos:  []ast.Atom{atom("e", ast.V("X"), ast.V("Y"))},
		Neg:  []ast.Atom{atom("f", ast.V("X"))},
		Cmp:  []ast.Cmp{ast.NewCmp(ast.V("X"), ast.LT, ast.V("Y"))},
	}
	s := Subst{"X": ast.N(1)}
	out := s.ApplyRule(r)
	if !out.Head.Args[0].Equal(ast.N(1)) || !out.Neg[0].Args[0].Equal(ast.N(1)) || !out.Cmp[0].Left.Equal(ast.N(1)) {
		t.Fatalf("ApplyRule incomplete: %s", out)
	}
	if !r.Head.Args[0].IsVar() {
		t.Fatal("ApplyRule mutated input")
	}
}

func TestFreeze(t *testing.T) {
	atoms := []ast.Atom{atom("e", ast.V("X"), ast.V("Y")), atom("f", ast.V("X"), ast.N(3))}
	frozen, m := Freeze(atoms)
	if len(m) != 2 {
		t.Fatalf("froze %d vars, want 2", len(m))
	}
	if frozen[0].Args[0].IsVar() || frozen[1].Args[0].IsVar() {
		t.Fatal("variables survived freezing")
	}
	if !frozen[0].Args[0].Equal(frozen[1].Args[0]) {
		t.Fatal("same variable must freeze to same constant")
	}
	if frozen[0].Args[0].Equal(frozen[0].Args[1]) {
		t.Fatal("distinct variables must freeze to distinct constants")
	}
	if !frozen[1].Args[1].Equal(ast.N(3)) {
		t.Fatal("constants must survive freezing")
	}
	// Original atoms untouched.
	if !atoms[0].Args[0].IsVar() {
		t.Fatal("Freeze mutated input")
	}
}

func TestSubstString(t *testing.T) {
	s := Subst{"X": ast.N(1), "A": ast.V("B")}
	if got := s.String(); got != "{A->B, X->1}" {
		t.Fatalf("String = %q", got)
	}
}
