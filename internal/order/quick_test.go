package order

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
)

// Property: satisfiability is antitone in the constraint set — any
// subset of a satisfiable conjunction is satisfiable.
func TestSatisfiabilityAntitone(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	vars := []ast.Term{x, y, z, w}
	ops := []ast.CmpOp{ast.LT, ast.LE, ast.GT, ast.GE, ast.EQ, ast.NE}
	for trial := 0; trial < 300; trial++ {
		var atoms []ast.Cmp
		for i := 0; i < 1+rng.Intn(6); i++ {
			var r ast.Term
			if rng.Intn(3) == 0 {
				r = ast.N(float64(rng.Intn(3)))
			} else {
				r = vars[rng.Intn(len(vars))]
			}
			atoms = append(atoms, cmp(vars[rng.Intn(len(vars))], ops[rng.Intn(len(ops))], r))
		}
		full := NewSet(atoms...)
		if !full.Satisfiable() {
			continue
		}
		// Every single-atom removal stays satisfiable.
		for skip := range atoms {
			sub := NewSet()
			for i, a := range atoms {
				if i != skip {
					sub.Add(a)
				}
			}
			if !sub.Satisfiable() {
				t.Fatalf("trial %d: %s satisfiable but subset %s is not", trial, full, sub)
			}
		}
	}
}

// Property: implication is reflexive and transitive on atoms drawn
// from the conjunction's own closure.
func TestImplicationReflexiveOnMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(999331))
	vars := []ast.Term{x, y, z}
	ops := []ast.CmpOp{ast.LT, ast.LE, ast.GT, ast.GE, ast.EQ, ast.NE}
	for trial := 0; trial < 300; trial++ {
		var atoms []ast.Cmp
		for i := 0; i < 1+rng.Intn(4); i++ {
			atoms = append(atoms, cmp(vars[rng.Intn(3)], ops[rng.Intn(len(ops))], vars[rng.Intn(3)]))
		}
		s := NewSet(atoms...)
		if !s.Satisfiable() {
			continue
		}
		for _, a := range atoms {
			if !s.Implies(a) {
				t.Fatalf("trial %d: %s does not imply its own member %v", trial, s, a)
			}
		}
	}
}

// Property: Implies(c) and unsatWith(c.Negate()) coincide for
// satisfiable sets — both say "every model satisfies c".
func TestImpliesContradictsDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	vars := []ast.Term{x, y, z}
	ops := []ast.CmpOp{ast.LT, ast.LE, ast.GT, ast.GE, ast.EQ, ast.NE}
	for trial := 0; trial < 300; trial++ {
		var atoms []ast.Cmp
		for i := 0; i < 1+rng.Intn(3); i++ {
			atoms = append(atoms, cmp(vars[rng.Intn(3)], ops[rng.Intn(len(ops))], vars[rng.Intn(3)]))
		}
		s := NewSet(atoms...)
		if !s.Satisfiable() {
			continue
		}
		goal := cmp(vars[rng.Intn(3)], ops[rng.Intn(len(ops))], vars[rng.Intn(3)])
		if s.Implies(goal) != s.unsatWith(goal.Negate()) {
			t.Fatalf("trial %d: Implies/unsatWith disagree on %v for %s", trial, goal, s)
		}
	}
}

// Property: ForcedEqualities is sound — substituting the forced
// representative preserves satisfiability, and asserting the contrary
// inequality is contradictory.
func TestForcedEqualitiesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	vars := []ast.Term{x, y, z}
	ops := []ast.CmpOp{ast.LT, ast.LE, ast.GE, ast.GT, ast.EQ}
	for trial := 0; trial < 300; trial++ {
		var atoms []ast.Cmp
		for i := 0; i < 2+rng.Intn(3); i++ {
			var r ast.Term
			if rng.Intn(4) == 0 {
				r = ast.N(float64(rng.Intn(2)))
			} else {
				r = vars[rng.Intn(3)]
			}
			atoms = append(atoms, cmp(vars[rng.Intn(3)], ops[rng.Intn(len(ops))], r))
		}
		s := NewSet(atoms...)
		if !s.Satisfiable() {
			continue
		}
		for v, rep := range s.ForcedEqualities() {
			if !s.Implies(cmp(ast.V(v), ast.EQ, rep)) {
				t.Fatalf("trial %d: %s reports %s = %v but does not imply it", trial, s, v, rep)
			}
			if !s.unsatWith(cmp(ast.V(v), ast.NE, rep)) {
				t.Fatalf("trial %d: %s allows %s != %v despite forcing equality", trial, s, v, rep)
			}
		}
	}
}
