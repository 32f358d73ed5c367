package contain

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/cqc"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/qtree"
)

func cq(t *testing.T, src string) cqc.CQ {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Rules[0]
}

func TestContainedBasics(t *testing.T) {
	// path of length 2 is contained in "some edge exists from X".
	q1 := cq(t, `q(X) :- e(X, Y), e(Y, Z).`)
	q2 := cq(t, `q(X) :- e(X, Y).`)
	got, err := cqc.Contained(q1, q2)
	if err != nil || !got {
		t.Fatalf("q1 ⊑ q2 expected: %v %v", got, err)
	}
	// Converse fails.
	got, err = cqc.Contained(q2, q1)
	if err != nil || got {
		t.Fatalf("q2 ⋢ q1 expected: %v %v", got, err)
	}
}

func TestContainedSelfLoop(t *testing.T) {
	// e(X,X) ⊑ e(X,Y) (folding), not conversely.
	q1 := cq(t, `q(X) :- e(X, X).`)
	q2 := cq(t, `q(X) :- e(X, Y).`)
	if got, _ := cqc.Contained(q1, q2); !got {
		t.Fatal("self-loop query is contained in edge query")
	}
	if got, _ := cqc.Contained(q2, q1); got {
		t.Fatal("edge query is not contained in self-loop query")
	}
}

func TestContainedHeadMatters(t *testing.T) {
	// Same bodies, different head projections.
	q1 := cq(t, `q(X) :- e(X, Y).`)
	q2 := cq(t, `q(Y) :- e(X, Y).`)
	if got, _ := cqc.Contained(q1, q2); got {
		t.Fatal("head projection must distinguish the queries")
	}
}

func TestContainedEquivalentRenaming(t *testing.T) {
	q1 := cq(t, `q(A, B) :- e(A, C), e(C, B).`)
	q2 := cq(t, `q(X, Y) :- e(X, Z), e(Z, Y).`)
	got1, _ := cqc.Contained(q1, q2)
	got2, _ := cqc.Contained(q2, q1)
	if !got1 || !got2 {
		t.Fatal("renamed copies must be equivalent")
	}
}

func TestContainedRejectsOrderAtoms(t *testing.T) {
	q1 := cq(t, `q(X) :- e(X, Y), X < Y.`)
	q2 := cq(t, `q(X) :- e(X, Y).`)
	if _, err := cqc.Contained(q1, q2); err == nil {
		t.Fatal("Contained must reject order atoms")
	}
}

func TestContainedOrder(t *testing.T) {
	// q1 demands X < Y; q2 demands X <= Y: q1 ⊑ q2.
	q1 := cq(t, `q(X, Y) :- e(X, Y), X < Y.`)
	q2 := cq(t, `q(X, Y) :- e(X, Y), X <= Y.`)
	if got, err := cqc.ContainedOrder(q1, q2); err != nil || !got {
		t.Fatalf("q1 ⊑ q2 expected: %v %v", got, err)
	}
	if got, _ := cqc.ContainedOrder(q2, q1); got {
		t.Fatal("X <= Y is not contained in X < Y")
	}
	// Unsatisfiable left side is contained in anything.
	q3 := cq(t, `q(X, Y) :- e(X, Y), X < Y, Y < X.`)
	if got, _ := cqc.ContainedOrder(q3, q1); !got {
		t.Fatal("empty query is contained in everything")
	}
}

func TestContainedOrderComplete(t *testing.T) {
	// The classic case needing linearization: q2 matches either X <= Y
	// or X >= Y via different mappings (the head is 0-ary so both
	// mappings preserve it); q1 (no constraints, symmetric body) is
	// contained in q2 only through case analysis.
	q1 := cq(t, `q :- e(X, Y), e(Y, X).`)
	q2 := cq(t, `q :- e(X, Y), e(Y, X), X <= Y.`)
	// Single-mapping test fails...
	if got, _ := cqc.ContainedOrder(q1, q2); got {
		t.Fatal("single-mapping test should not prove this containment")
	}
	// ...but the complete test succeeds: in every linear order, either
	// X <= Y (identity mapping) or Y <= X (swap mapping).
	got, err := cqc.ContainedOrderComplete(q1, q2)
	if err != nil || !got {
		t.Fatalf("linearization-complete test must prove containment: %v %v", got, err)
	}
	// Sanity: the converse is trivially true (q2 has more constraints).
	if got, _ := cqc.ContainedOrderComplete(q2, q1); !got {
		t.Fatal("q2 ⊑ q1 must hold")
	}
}

func TestContainedOrderCompleteNegative(t *testing.T) {
	q1 := cq(t, `q(X, Y) :- e(X, Y).`)
	q2 := cq(t, `q(X, Y) :- e(X, Y), X < Y.`)
	if got, _ := cqc.ContainedOrderComplete(q1, q2); got {
		t.Fatal("unconstrained query is not contained in the constrained one")
	}
}

func TestUCQContained(t *testing.T) {
	up := func(srcs ...string) []cqc.CQ {
		var out []cqc.CQ
		for _, s := range srcs {
			out = append(out, cq(t, s))
		}
		return out
	}
	// {len-2 path, len-3 path} ⊑ {len-1 path from X}.
	if !cqc.UCQContained(
		up(`q(X) :- e(X, Y), e(Y, Z).`, `q(X) :- e(X, Y), e(Y, Z), e(Z, W).`),
		up(`q(X) :- e(X, Y).`),
	) {
		t.Fatal("containment expected")
	}
	// Union not contained in a single stricter disjunct.
	if cqc.UCQContained(
		up(`q(X) :- e(X, Y).`),
		up(`q(X) :- e(X, X).`, `q(X) :- e(X, Y), e(Y, X).`),
	) {
		t.Fatal("containment must fail")
	}
	// A pair with order atoms is decided by ContainedOrder: the strict
	// edge is contained in the non-strict one, not the other way round.
	if !cqc.UCQContained(
		up(`q(X) :- e(X, Y), X < Y.`),
		up(`q(X) :- e(X, X).`, `q(X) :- e(X, Y), X <= Y.`),
	) {
		t.Fatal("order-atom containment expected")
	}
	if cqc.UCQContained(
		up(`q(X) :- e(X, Y), X <= Y.`),
		up(`q(X) :- e(X, Y), X < Y.`),
	) {
		t.Fatal("order-atom containment must fail")
	}
	// A pair that errors (negation) counts as not contained, and the
	// search goes on to the next disjunct.
	if cqc.UCQContained(
		up(`q(X) :- e(X, Y), !f(Y).`),
		up(`q(X) :- e(X, Y).`),
	) {
		t.Fatal("a negated disjunct must count as not contained")
	}
	if !cqc.UCQContained(
		up(`q(X) :- e(X, Y).`),
		up(`q(X) :- e(X, Y), !f(Y).`, `q(X) :- e(X, Y).`),
	) {
		t.Fatal("an erroring pair must not stop the search")
	}
}

func TestProgramContainedInUCQ(t *testing.T) {
	// Transitive closure is NOT contained in {direct edge} ∪ {2-path}.
	p := parser.MustParseProgram(`
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
		?- tc.
	`)
	ucq := []cqc.CQ{
		cq(t, `q(X, Y) :- e(X, Y).`),
		cq(t, `q(X, Y) :- e(X, Z), e(Z, Y).`),
	}
	got, err := ProgramContainedInUCQ(p, ucq)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("transitive closure exceeds bounded paths")
	}
	// A bounded program IS contained: tc limited to ≤2 steps.
	p2 := parser.MustParseProgram(`
		tc2(X, Y) :- e(X, Y).
		tc2(X, Y) :- e(X, Z), e(Z, Y).
		?- tc2.
	`)
	got, err = ProgramContainedInUCQ(p2, ucq)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("two-step closure is contained in the union")
	}
}

func TestProgramContainedInUCQFolding(t *testing.T) {
	// Containment requiring a folding mapping: every answer of p is an
	// edge, and the UCQ disjunct is the generic edge query.
	p := parser.MustParseProgram(`
		loop(X, X) :- e(X, X).
		?- loop.
	`)
	ucq := []cqc.CQ{cq(t, `q(X, Y) :- e(X, Y).`)}
	got, err := ProgramContainedInUCQ(p, ucq)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("loop answers are edges")
	}
}

func TestSatisfiabilityAsNonContainment(t *testing.T) {
	// Cross-check Prop 5.1: satisfiability via the query tree must
	// agree with non-containment via the reduction, on instances where
	// both sides are decidable.
	cases := []struct {
		prog string
		ics  string
	}{
		{
			`q(X, Z) :- a(X, Y), b(Y, Z).
			 ?- q.`,
			`:- a(X, Y), b(Y, Z).`, // unsatisfiable
		},
		{
			`q(X, Z) :- a(X, Y), b(W, Z).
			 ?- q.`,
			`:- a(X, Y), b(Y, Z).`, // satisfiable
		},
		{
			`q(X, Y) :- a(X, Y).
			 q(X, Y) :- a(X, Z), q(Z, Y).
			 ?- q.`,
			`:- a(X, Y), a(Y, Z).`, // satisfiable (single edges ok)
		},
	}
	for i, c := range cases {
		p := parser.MustParseProgram(c.prog)
		ics := parser.MustParseICs(c.ics)
		sat, err := ProgramSatisfiable(p, ics)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		rp, ucq, err := SatisfiabilityAsNonContainment(p, ics)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		contained, err := ProgramContainedInUCQ(rp, ucq)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if sat == contained {
			t.Fatalf("case %d: satisfiable=%v must equal NOT contained=%v", i, sat, !contained)
		}
	}
}

// TestContainmentAgainstBruteForce cross-checks CQ containment against
// direct evaluation on small random databases: if q1 ⊑ q2 per the
// containment mapping, then q1's answers must be a subset of q2's on
// every database (we sample); if the test says not contained, the
// canonical database of q1 must witness it exactly.
func TestContainmentAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() cqc.CQ {
		// Random CQ: head q(X0), body of 1-3 e-atoms over 3 vars.
		vars := []ast.Term{ast.V("X0"), ast.V("X1"), ast.V("X2")}
		n := 1 + rng.Intn(3)
		r := ast.Rule{Head: ast.NewAtom("q", vars[0])}
		for i := 0; i < n; i++ {
			r.Pos = append(r.Pos, ast.NewAtom("e",
				vars[rng.Intn(3)], vars[rng.Intn(3)]))
		}
		// Ensure safety: head var occurs.
		r.Pos = append(r.Pos, ast.NewAtom("e", vars[0], vars[rng.Intn(3)]))
		return r
	}
	answersOn := func(q cqc.CQ, db *eval.DB) map[string]bool {
		p := &ast.Program{Rules: []ast.Rule{q}, Query: q.Head.Pred}
		idb, _, err := eval.EvalCtx(context.Background(), p, db, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, f := range idb.SortedFacts(q.Head.Pred) {
			out[f] = true
		}
		return out
	}
	for trial := 0; trial < 60; trial++ {
		q1, q2 := mk(), mk()
		got, err := cqc.Contained(q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		// Sample small databases.
		for s := 0; s < 10; s++ {
			db := eval.NewDB()
			for i := 0; i < 4; i++ {
				db.AddFact(ast.NewAtom("e",
					ast.N(float64(rng.Intn(3))), ast.N(float64(rng.Intn(3)))))
			}
			a1, a2 := answersOn(q1, db), answersOn(q2, db)
			subset := true
			for f := range a1 {
				if !a2[f] {
					subset = false
				}
			}
			if got && !subset {
				t.Fatalf("trial %d: claimed q1 ⊑ q2 but DB refutes it\nq1: %s\nq2: %s", trial, q1, q2)
			}
		}
		if !got {
			// The canonical database of q1 must be a counterexample.
			db := eval.NewDB()
			frozen := map[string]ast.Term{}
			fz := func(tm ast.Term) ast.Term {
				if !tm.IsVar() {
					return tm
				}
				c, ok := frozen[tm.Name]
				if !ok {
					c = ast.S("k_" + tm.Name)
					frozen[tm.Name] = c
				}
				return c
			}
			for _, a := range q1.Pos {
				g := a.Clone()
				for i := range g.Args {
					g.Args[i] = fz(g.Args[i])
				}
				db.AddFact(g)
			}
			a1, a2 := answersOn(q1, db), answersOn(q2, db)
			counter := false
			for f := range a1 {
				if !a2[f] {
					counter = true
				}
			}
			if !counter {
				t.Fatalf("trial %d: claimed q1 ⋢ q2 but canonical DB gives no counterexample\nq1: %s\nq2: %s", trial, q1, q2)
			}
		}
	}
}

func TestNotContainedAsSatisfiabilityArityCheck(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X, Y) :- e(X, Y).
		?- q.
	`)
	bad := []cqc.CQ{cq(t, `r(X) :- e(X, Y).`)}
	if _, _, err := NotContainedAsSatisfiability(p, bad); err == nil {
		t.Fatal("arity mismatch must be rejected")
	}
	badIDB := []cqc.CQ{cq(t, `r(X, Y) :- q(X, Y).`)}
	if _, _, err := NotContainedAsSatisfiability(p, badIDB); err == nil {
		t.Fatal("IDB predicates in CQ bodies must be rejected")
	}
}

func TestProgramSatisfiableMatchesOptimizeFlag(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X, Z) :- a(X, Y), b(Y, Z).
		?- q.
	`)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	sat, err := ProgramSatisfiable(p, ics)
	if err != nil {
		t.Fatal(err)
	}
	out, err := qtree.OptimizeCtx(context.Background(), p, ics, qtree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sat != out.Satisfiable {
		t.Fatal("ProgramSatisfiable must agree with Optimize")
	}
}
