package order

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ast"
)

func cmp(l ast.Term, op ast.CmpOp, r ast.Term) ast.Cmp { return ast.NewCmp(l, op, r) }

var (
	x = ast.V("X")
	y = ast.V("Y")
	z = ast.V("Z")
	w = ast.V("W")
)

func TestEmptySetSatisfiable(t *testing.T) {
	if !NewSet().Satisfiable() {
		t.Fatal("empty conjunction must be satisfiable")
	}
}

func TestSimpleSatisfiable(t *testing.T) {
	cases := []*Set{
		NewSet(cmp(x, ast.LT, y)),
		NewSet(cmp(x, ast.LT, y), cmp(y, ast.LT, z)),
		NewSet(cmp(x, ast.LE, y), cmp(y, ast.LE, x)), // forces X=Y, fine
		NewSet(cmp(x, ast.NE, y)),
		NewSet(cmp(x, ast.EQ, y), cmp(y, ast.EQ, z)),
		NewSet(cmp(x, ast.GT, ast.N(0)), cmp(x, ast.LT, ast.N(1))), // density
		NewSet(cmp(x, ast.GE, ast.N(5)), cmp(x, ast.LE, ast.N(5))), // pinned
	}
	for i, s := range cases {
		if !s.Satisfiable() {
			t.Errorf("case %d (%s) should be satisfiable", i, s)
		}
	}
}

func TestSimpleUnsatisfiable(t *testing.T) {
	cases := []*Set{
		NewSet(cmp(x, ast.LT, x)),
		NewSet(cmp(x, ast.LT, y), cmp(y, ast.LT, x)),
		NewSet(cmp(x, ast.LT, y), cmp(y, ast.LE, x)),
		NewSet(cmp(x, ast.EQ, y), cmp(x, ast.NE, y)),
		NewSet(cmp(x, ast.NE, x)),
		NewSet(cmp(ast.N(2), ast.LT, ast.N(1))),
		NewSet(cmp(ast.N(1), ast.EQ, ast.N(2))),
		NewSet(cmp(x, ast.LT, ast.N(1)), cmp(x, ast.GT, ast.N(2))),
		NewSet(cmp(x, ast.LT, y), cmp(y, ast.LT, z), cmp(z, ast.LT, x)),
		// X and Y both pinned to 5, yet required different:
		NewSet(cmp(x, ast.GE, ast.N(5)), cmp(x, ast.LE, ast.N(5)),
			cmp(y, ast.GE, ast.N(5)), cmp(y, ast.LE, ast.N(5)),
			cmp(x, ast.NE, y)),
	}
	for i, s := range cases {
		if s.Satisfiable() {
			t.Errorf("case %d (%s) should be unsatisfiable", i, s)
		}
	}
}

func TestConstantSandwich(t *testing.T) {
	// 3 <= X <= 3 pins X to 3; X < 3 then contradicts.
	s := NewSet(cmp(ast.N(3), ast.LE, x), cmp(x, ast.LE, ast.N(3)))
	if !s.Satisfiable() {
		t.Fatal("pinning is satisfiable")
	}
	s2 := s.Clone()
	s2.Add(cmp(x, ast.NE, ast.N(3)))
	if s2.Satisfiable() {
		t.Fatal("X pinned to 3 and X != 3 must be unsatisfiable")
	}
	// Strict sandwich between adjacent-looking integers is fine (dense).
	s3 := NewSet(cmp(ast.N(3), ast.LT, x), cmp(x, ast.LT, ast.N(4)))
	if !s3.Satisfiable() {
		t.Fatal("dense order: 3 < X < 4 is satisfiable")
	}
	// Strict empty sandwich: 3 < X < 3.
	s4 := NewSet(cmp(ast.N(3), ast.LT, x), cmp(x, ast.LT, ast.N(3)))
	if s4.Satisfiable() {
		t.Fatal("3 < X < 3 must be unsatisfiable")
	}
}

func TestStringConstants(t *testing.T) {
	s := NewSet(cmp(x, ast.EQ, ast.S("a")), cmp(x, ast.EQ, ast.S("b")))
	if s.Satisfiable() {
		t.Fatal("X = a and X = b must be unsatisfiable")
	}
	s2 := NewSet(cmp(ast.S("a"), ast.LT, x), cmp(x, ast.LT, ast.S("b")))
	if !s2.Satisfiable() {
		t.Fatal("a < X < b is satisfiable")
	}
	// Numbers precede strings in the constant order.
	s3 := NewSet(cmp(ast.S("a"), ast.LT, ast.N(0)))
	if s3.Satisfiable() {
		t.Fatal("strings follow numbers")
	}
}

func TestImplication(t *testing.T) {
	s := NewSet(cmp(x, ast.LT, y), cmp(y, ast.LT, z))
	checks := []struct {
		c    ast.Cmp
		want bool
	}{
		{cmp(x, ast.LT, z), true},
		{cmp(x, ast.LE, z), true},
		{cmp(x, ast.NE, z), true},
		{cmp(z, ast.GT, x), true},
		{cmp(x, ast.EQ, z), false},
		{cmp(z, ast.LT, x), false},
		{cmp(x, ast.LT, w), false}, // unconstrained variable
		{cmp(x, ast.LE, x), true},  // tautology
		{cmp(ast.N(1), ast.LT, ast.N(2)), true},
	}
	for _, c := range checks {
		if got := s.Implies(c.c); got != c.want {
			t.Errorf("Implies(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestImplicationFromEquality(t *testing.T) {
	s := NewSet(cmp(x, ast.EQ, y), cmp(y, ast.LE, z), cmp(z, ast.LE, y))
	for _, c := range []ast.Cmp{
		cmp(x, ast.EQ, z), cmp(x, ast.LE, z), cmp(x, ast.GE, z), cmp(y, ast.EQ, z),
	} {
		if !s.Implies(c) {
			t.Errorf("should imply %v", c)
		}
	}
	if s.Implies(cmp(x, ast.LT, z)) {
		t.Error("must not imply strict inequality between equals")
	}
}

func TestUnsatImpliesEverything(t *testing.T) {
	s := NewSet(cmp(x, ast.LT, x))
	if !s.Implies(cmp(y, ast.EQ, z)) {
		t.Fatal("ex falso quodlibet")
	}
}

func TestContradicts(t *testing.T) {
	s := NewSet(cmp(x, ast.LT, y))
	if !s.unsatWith(cmp(y, ast.LT, x)) {
		t.Fatal("should contradict")
	}
	if s.unsatWith(cmp(y, ast.LT, z)) {
		t.Fatal("should not contradict")
	}
}

func TestForcedEqualities(t *testing.T) {
	s := NewSet(cmp(x, ast.LE, y), cmp(y, ast.LE, x), cmp(y, ast.EQ, z))
	eqs := s.ForcedEqualities()
	// All of X, Y, Z in one class; representative is least var name X.
	if len(eqs) != 2 {
		t.Fatalf("got %v", eqs)
	}
	if !eqs["Y"].Equal(ast.V("X")) || !eqs["Z"].Equal(ast.V("X")) {
		t.Fatalf("representatives wrong: %v", eqs)
	}
}

func TestForcedEqualitiesPinnedToConstant(t *testing.T) {
	s := NewSet(cmp(ast.N(5), ast.LE, x), cmp(x, ast.LE, ast.N(5)), cmp(x, ast.EQ, y))
	eqs := s.ForcedEqualities()
	if !eqs["X"].Equal(ast.N(5)) || !eqs["Y"].Equal(ast.N(5)) {
		t.Fatalf("pinned variables must map to the constant: %v", eqs)
	}
}

func TestForcedEqualitiesNoneForStrict(t *testing.T) {
	s := NewSet(cmp(x, ast.LT, y))
	if eqs := s.ForcedEqualities(); len(eqs) != 0 {
		t.Fatalf("no equalities expected, got %v", eqs)
	}
}

func TestAddDeduplicates(t *testing.T) {
	s := NewSet(cmp(x, ast.LT, y), cmp(x, ast.LT, y), cmp(y, ast.GT, x))
	if len(s.atoms) != 1 {
		t.Fatalf("%d atoms, want 1 (x<y, x<y, y>x are the same atom)", len(s.atoms))
	}
}

// 0 and -0 are one constant to Term.Equal and Term.Compare, so they
// must be one node of the constraint graph.
func TestNegativeZeroIsZero(t *testing.T) {
	zero, negZero := ast.N(0), ast.N(math.Copysign(0, -1))
	if NewSet(cmp(x, ast.LT, zero), cmp(x, ast.GT, negZero)).Satisfiable() {
		t.Fatal("X < 0, X > -0 must be unsatisfiable")
	}
	s := NewSet(cmp(x, ast.LE, zero), cmp(x, ast.GE, negZero))
	if !s.Implies(cmp(x, ast.EQ, zero)) || !s.Implies(cmp(x, ast.EQ, negZero)) {
		t.Fatalf("%s must imply X = 0", s)
	}
	if rep, ok := s.ForcedEqualities()["X"]; !ok || !rep.Equal(zero) {
		t.Fatalf("%s must pin X to 0, got %v", s, s.ForcedEqualities())
	}
	if n := len(NewSet(cmp(x, ast.NE, zero), cmp(negZero, ast.NE, x)).atoms); n != 1 {
		t.Fatalf("X != 0 and -0 != X are one atom, got %d", n)
	}
}

// A query on an unchanged Set reads the kept closure: no allocation,
// whether or not the queried terms occur in the conjunction.
func TestImpliesDoesNotAllocate(t *testing.T) {
	s := NewSet(cmp(x, ast.LT, y), cmp(y, ast.LE, z), cmp(z, ast.LT, ast.N(5)), cmp(w, ast.NE, x))
	queries := []ast.Cmp{
		cmp(x, ast.LT, z),
		cmp(x, ast.NE, ast.N(7)),          // constant absent from s
		cmp(ast.V("Q"), ast.LE, y),        // variable absent from s
		cmp(ast.S("k"), ast.GT, ast.N(9)), // both absent
	}
	s.Satisfiable()
	if n := testing.AllocsPerRun(100, func() {
		for _, q := range queries {
			s.Implies(q)
			s.unsatWith(q)
		}
	}); n != 0 {
		t.Fatalf("Implies/unsatWith on an unchanged Set allocate %v times per run, want 0", n)
	}
}

// TestSatisfiableAgainstBruteForce cross-checks the solver against a
// brute-force assignment search on random small instances over a fixed
// finite domain. A conjunction the brute force satisfies over
// {0,...,5} must be satisfiable for the solver (the finite domain
// embeds in the dense one). The converse need not hold (density), so
// we only check that direction plus a density-aware converse: if the
// solver says unsatisfiable, the brute force must fail too.
func TestSatisfiableAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	vars := []ast.Term{x, y, z, w}
	ops := []ast.CmpOp{ast.LT, ast.LE, ast.GT, ast.GE, ast.EQ, ast.NE}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(5)
		s := NewSet()
		for i := 0; i < n; i++ {
			l := vars[rng.Intn(len(vars))]
			var r ast.Term
			if rng.Intn(4) == 0 {
				r = ast.N(float64(rng.Intn(4)))
			} else {
				r = vars[rng.Intn(len(vars))]
			}
			s.Add(cmp(l, ops[rng.Intn(len(ops))], r))
		}
		bruteSat := bruteForceSat(s)
		solverSat := s.Satisfiable()
		if bruteSat && !solverSat {
			t.Fatalf("trial %d: brute force found assignment but solver says unsat: %s", trial, s)
		}
		if !solverSat && bruteSat {
			t.Fatalf("trial %d: solver unsat but brute sat: %s", trial, s)
		}
		// For these instances (constants in {0..3}, domain {0..5} with
		// halves), density is covered by including midpoints:
		if solverSat && !bruteSatDense(s) {
			t.Fatalf("trial %d: solver sat but no assignment over refined grid: %s", trial, s)
		}
	}
}

func bruteForceSat(s *Set) bool {
	return bruteOver(s, []float64{0, 1, 2, 3, 4, 5})
}

// bruteSatDense uses a grid with midpoints and outliers so that any
// satisfiable constraint over constants {0..3} has a witness.
func bruteSatDense(s *Set) bool {
	return bruteOver(s, []float64{-1, -0.5, 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4})
}

func bruteOver(s *Set, domain []float64) bool {
	varNames := map[string]bool{}
	for _, a := range s.atoms {
		for _, v := range a.Vars(nil) {
			varNames[v] = true
		}
	}
	var names []string
	for v := range varNames {
		names = append(names, v)
	}
	assign := map[string]float64{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			for _, a := range s.atoms {
				l, r := groundTerm(a.Left, assign), groundTerm(a.Right, assign)
				if !ast.NewCmp(l, a.Op, r).Eval() {
					return false
				}
			}
			return true
		}
		for _, d := range domain {
			assign[names[i]] = d
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func groundTerm(t ast.Term, assign map[string]float64) ast.Term {
	if t.IsVar() {
		return ast.N(assign[t.Name])
	}
	return t
}

func TestImpliesAgainstBruteForce(t *testing.T) {
	// If solver says C ⊨ a, then every brute-force witness of C over
	// the refined grid must satisfy a.
	rng := rand.New(rand.NewSource(999))
	vars := []ast.Term{x, y, z}
	ops := []ast.CmpOp{ast.LT, ast.LE, ast.GT, ast.GE, ast.EQ, ast.NE}
	grid := []float64{-1, -0.5, 0, 0.5, 1, 1.5, 2, 2.5, 3}
	for trial := 0; trial < 300; trial++ {
		s := NewSet()
		for i := 0; i < 1+rng.Intn(3); i++ {
			s.Add(cmp(vars[rng.Intn(3)], ops[rng.Intn(len(ops))], vars[rng.Intn(3)]))
		}
		goal := cmp(vars[rng.Intn(3)], ops[rng.Intn(len(ops))], vars[rng.Intn(3)])
		if !s.Implies(goal) {
			continue
		}
		// enumerate all witnesses of s over grid; each must satisfy goal.
		names := []string{"X", "Y", "Z"}
		assign := map[string]float64{}
		var rec func(i int)
		rec = func(i int) {
			if i == len(names) {
				for _, a := range s.atoms {
					if !ast.NewCmp(groundTerm(a.Left, assign), a.Op, groundTerm(a.Right, assign)).Eval() {
						return
					}
				}
				if !ast.NewCmp(groundTerm(goal.Left, assign), goal.Op, groundTerm(goal.Right, assign)).Eval() {
					t.Fatalf("trial %d: %s implies %v per solver, but witness %v violates it", trial, s, goal, assign)
				}
				return
			}
			for _, d := range grid {
				assign[names[i]] = d
				rec(i + 1)
			}
		}
		rec(0)
	}
}
