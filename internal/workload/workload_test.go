package workload

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/parser"
)

func countPred(facts []ast.Atom, pred string) int {
	n := 0
	for _, f := range facts {
		if f.Pred == pred {
			n++
		}
	}
	return n
}

func TestChain(t *testing.T) {
	facts := Chain(1, 5)
	if len(facts) != 5 {
		t.Fatalf("got %d facts", len(facts))
	}
	if facts[0].String() != "step(1, 2)" || facts[4].String() != "step(5, 6)" {
		t.Fatalf("chain wrong: %v", facts)
	}
}

func TestGoodPathStaysBelowThreshold(t *testing.T) {
	facts := GoodPath(200, 100, 40)
	// The low chain must be entirely below 100 for any lowN.
	for _, f := range facts {
		if f.Pred != "step" {
			continue
		}
		if f.Args[0].Val < 100 && f.Args[0].Val >= 0 {
			t.Fatalf("low-chain node %v crosses into [0, 100)", f)
		}
	}
	// And the workload must satisfy the Section 3 constraints.
	ics := parser.MustParseICs(`
		:- startPoint(X), step(X, Y), X < 100.
		:- step(X, Y), X >= Y.
	`)
	ok, err := chase.IsConsistent(facts, ics)
	if err != nil || !ok {
		t.Fatalf("GoodPath violates the Section 3 constraints: %v %v", ok, err)
	}
}

func TestABCombSatisfiesNoBAfterA(t *testing.T) {
	facts := ABComb(3, 4, 4)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	ok, err := chase.IsConsistent(facts, ics)
	if err != nil || !ok {
		t.Fatal("ABComb must satisfy the constraint")
	}
	if countPred(facts, "b") != 3*4 || countPred(facts, "a") != 3*4 {
		t.Fatalf("edge counts wrong: a=%d b=%d", countPred(facts, "a"), countPred(facts, "b"))
	}
}

func TestStarPathsConsistent(t *testing.T) {
	facts := StarPaths(4, 3)
	ics := parser.MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
	ok, err := chase.IsConsistent(facts, ics)
	if err != nil || !ok {
		t.Fatal("StarPaths must satisfy the start/end constraint")
	}
	if countPred(facts, "path") != 4*(3+1) {
		t.Fatalf("path count = %d", countPred(facts, "path"))
	}
}

func TestMonotoneRandomGraphSatisfiesOrderIC(t *testing.T) {
	facts := MonotoneRandomGraph(20, 30, 7)
	if len(facts) != 30 {
		t.Fatalf("got %d facts", len(facts))
	}
	ics := parser.MustParseICs(`:- step(X, Y), X >= Y.`)
	ok, err := chase.IsConsistent(facts, ics)
	if err != nil || !ok {
		t.Fatal("MonotoneRandomGraph must be strictly increasing")
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	a := RandomGraph(10, 20, 42)
	b := RandomGraph(10, 20, 42)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed must give same graph")
		}
	}
	c := RandomGraph(10, 20, 43)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different graphs")
	}
}

func TestDBHelper(t *testing.T) {
	db := DB(Chain(1, 3))
	if db.Count("step") != 3 {
		t.Fatalf("DB helper lost facts: %d", db.Count("step"))
	}
}
