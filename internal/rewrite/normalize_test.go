package rewrite

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/order"
	"repro/internal/parser"
	"repro/internal/unify"
)

// normalizeRulePerAtom is NormalizeRule with a fresh Set closed per
// order atom, as it was before the rule's one Set: the reference for
// the choice of substitution and surviving atoms.
func normalizeRulePerAtom(r ast.Rule) (ast.Rule, bool) {
	set := order.NewSet(r.Cmp...)
	if !set.Satisfiable() {
		return ast.Rule{}, false
	}
	if eqs := set.ForcedEqualities(); len(eqs) > 0 {
		r = unify.Subst(eqs).ApplyRule(r)
	} else {
		r = r.Clone()
	}
	var kept []ast.Cmp
	for i, c := range r.Cmp {
		rest := order.NewSet()
		for _, k := range kept {
			rest.Add(k)
		}
		for j := i + 1; j < len(r.Cmp); j++ {
			rest.Add(r.Cmp[j])
		}
		if !rest.Implies(c) {
			kept = append(kept, c)
		}
	}
	r.Cmp = kept
	return r, true
}

// Random rules with up to seven order atoms over four variables and a
// few constants — duplicates, mutually implying pairs, forced
// equalities and ground atoms included — normalize exactly as under the
// per-atom algorithm: same verdict, same substitution, same surviving
// atoms in the same order.
func TestNormalizeRuleMatchesPerAtom(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	pool := []ast.Term{ast.V("X"), ast.V("Y"), ast.V("Z"), ast.V("W"), ast.N(0), ast.N(1), ast.N(2.5), ast.S("a")}
	ops := []ast.CmpOp{ast.LT, ast.LE, ast.GT, ast.GE, ast.EQ, ast.NE}
	base := parser.MustParseProgram(`p(X, Y) :- e(X, Y, Z), f(W, 1).`).Rules[0]
	for trial := 0; trial < 5000; trial++ {
		r := base.Clone()
		for i, m := 0, rng.Intn(8); i < m; i++ {
			r.Cmp = append(r.Cmp, ast.NewCmp(pool[rng.Intn(len(pool))], ops[rng.Intn(len(ops))], pool[rng.Intn(len(pool))]))
		}
		got, gotOK := NormalizeRule(r)
		want, wantOK := normalizeRulePerAtom(r)
		if gotOK != wantOK || gotOK && got.String() != want.String() {
			t.Fatalf("%s:\n got %v %s\nwant %v %s", r, gotOK, got, wantOK, want)
		}
	}
}

// One Set serves the whole rule: the allocations are the substituted
// rule's and the Set's, not a Set per order atom (72 with a fresh Set
// closed per atom).
func TestNormalizeRuleAllocations(t *testing.T) {
	r := parser.MustParseProgram(`p(X, Y) :- e(X, Y, Z), X < Y, Y <= Z, Z < 10, X != 3, Y >= X, X < 10.`).Rules[0]
	if n := testing.AllocsPerRun(100, func() { NormalizeRule(r) }); n > 13 {
		t.Fatalf("NormalizeRule allocates %v times, want at most 13", n)
	}
}
