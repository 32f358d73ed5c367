// Package workload generates the synthetic extensional databases used
// by the examples, tests, and the experiment harness: the step-graphs
// with start/end points that motivate Example 3.1 and the Section 3
// threshold example, the two-flavour (a/b) edge graphs of the Figure 1
// running example, and random graphs for differential testing. All
// generators are deterministic given their parameters.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/eval"
)

func num(i int) ast.Term { return ast.N(float64(i)) }

// Chain returns step(i, i+1) facts for i in [from, from+n).
func Chain(from, n int) []ast.Atom {
	out := make([]ast.Atom, 0, n)
	for i := from; i < from+n; i++ {
		out = append(out, ast.NewAtom("step", num(i), num(i+1)))
	}
	return out
}

// GoodPath builds the Example 3.1 workload: a low chain of lowN steps
// whose nodes all lie strictly below zero (and hence below any
// positive threshold), a high chain of highN steps starting at
// highStart, one start point and one end point on the high chain.
// Evaluating goodPath on it answers exactly one tuple, but an
// unoptimized program wastes work on the low chain and on backwards
// start/end combinations.
func GoodPath(lowN, highStart, highN int) []ast.Atom {
	facts := Chain(-lowN-1, lowN)
	facts = append(facts, Chain(highStart, highN)...)
	facts = append(facts,
		ast.NewAtom("startPoint", num(highStart)),
		ast.NewAtom("endPoint", num(highStart+highN)),
	)
	return facts
}

// ABComb builds the Figure 1 workload: width parallel b-chains of
// length bLen feeding into width parallel a-chains of length aLen via
// a shared junction — many b-then-a paths, no a-then-b ones.
func ABComb(width, bLen, aLen int) []ast.Atom {
	var out []ast.Atom
	id := 1
	junction := 0
	for w := 0; w < width; w++ {
		prev := id
		id++
		for i := 1; i < bLen; i++ {
			out = append(out, ast.NewAtom("b", num(prev), num(id)))
			prev = id
			id++
		}
		out = append(out, ast.NewAtom("b", num(prev), num(junction)))
	}
	for w := 0; w < width; w++ {
		prev := junction
		for i := 0; i < aLen; i++ {
			out = append(out, ast.NewAtom("a", num(prev), num(id)))
			prev = id
			id++
		}
	}
	return out
}

// RandomGraph returns m random edge(x, y) facts over n nodes.
func RandomGraph(n, m int, seed int64) []ast.Atom {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ast.Atom, 0, m)
	for i := 0; i < m; i++ {
		out = append(out, ast.NewAtom("edge",
			num(rng.Intn(n)), num(rng.Intn(n))))
	}
	return out
}

// MonotoneRandomGraph returns m random strictly-increasing step(x, y)
// facts over n nodes (satisfying :- step(X, Y), X >= Y).
func MonotoneRandomGraph(n, m int, seed int64) []ast.Atom {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ast.Atom, 0, m)
	for len(out) < m {
		x, y := rng.Intn(n), rng.Intn(n)
		if x < y {
			out = append(out, ast.NewAtom("step", num(x), num(y)))
		}
	}
	return out
}

// RandomProgram generates a random layered datalog program in source
// syntax, integrity constraints, and a database satisfying them —
// fodder for differential testing of the whole pipeline (parse →
// adorn/optimize → evaluate) and for the incremental-maintenance
// experiments. The program stacks 2–4 derived layers (joins, unions,
// comparison filters) over a monotone step graph, optionally closes
// the top layer transitively, and tops it with a query rule; every
// rule is range-restricted by construction. Deterministic per seed.
func RandomProgram(seed int64) (progSrc, icsSrc string, facts []ast.Atom) {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(9)
	m := 2*n + rng.Intn(n)
	facts = MonotoneRandomGraph(n, m, rng.Int63())
	for i := 0; i < n; i += 1 + rng.Intn(3) {
		facts = append(facts, ast.NewAtom("mark", num(i)))
	}

	var b strings.Builder
	prev := []string{"step"}
	layers := 2 + rng.Intn(3)
	for i := 1; i <= layers; i++ {
		name := fmt.Sprintf("t%d", i)
		pa := prev[rng.Intn(len(prev))]
		pb := prev[rng.Intn(len(prev))]
		switch rng.Intn(3) {
		case 0: // composition plus a copy, so the layer stays populated
			fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Z), %s(Z, Y).\n", name, pa, pb)
			fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Y).\n", name, pa)
		case 1: // two comparison filters
			fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Y), X < %d.\n", name, pa, 1+rng.Intn(n))
			fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Y), Y >= %d.\n", name, pb, rng.Intn(n))
		default: // union
			fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Y).\n", name, pa)
			fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Y).\n", name, pb)
		}
		prev = append(prev, name)
	}
	base := prev[len(prev)-1]
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "reach(X, Y) :- %s(X, Y).\n", base)
		fmt.Fprintf(&b, "reach(X, Y) :- %s(X, Z), reach(Z, Y).\n", base)
		base = "reach"
	}
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(&b, "q(X, Y) :- mark(X), %s(X, Y).\n", base)
	case 1:
		fmt.Fprintf(&b, "q(X, Y) :- %s(X, Y), Y > %d.\n", base, rng.Intn(n))
	default:
		fmt.Fprintf(&b, "q(X, Y) :- mark(X), %s(X, Y), X < Y.\n", base)
	}
	b.WriteString("?- q.\n")

	// Both constraints hold on the generated facts by construction: the
	// step graph is strictly increasing and marks are non-negative.
	icsSrc = ":- step(X, Y), X >= Y.\n:- mark(X), X < 0.\n"
	return b.String(), icsSrc, facts
}

// Theorem51 returns the family behind the paper's Theorem 5.1 at k, in
// source syntax: p(X) :- base(X), and for each i in 1..k the recursive
// rules p(X) :- ai(X), p(X) and p(X) :- bi(X), p(X) under the
// constraint :- ai(X), bi(X). Each constraint leaves a derivation three
// states — no ai seen, no bi seen, neither seen — so the query predicate
// has 3^k adornments and the query tree grows as 7^k goal nodes.
func Theorem51(k int) (progSrc, icsSrc string) {
	var p, ics strings.Builder
	p.WriteString("p(X) :- base(X).\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&p, "p(X) :- a%d(X), p(X).\np(X) :- b%d(X), p(X).\n", i, i)
		fmt.Fprintf(&ics, ":- a%d(X), b%d(X).\n", i, i)
	}
	p.WriteString("?- p.\n")
	return p.String(), ics.String()
}

// DB materializes facts into a fresh evaluation database.
func DB(facts []ast.Atom) *eval.DB {
	db := eval.NewDB()
	db.AddFacts(facts)
	return db
}

// StarPaths is the Example 3.1 workload with the path relation
// materialized as EDB facts, isolating the rule the example rewrites:
// k start points each with m "backward" paths (to nodes below every
// start point) and one forward path to its own end point. The
// constraint ":- startPoint(X), endPoint(Y), Y <= X" holds, and the
// residue Y > X skips the m wasted endPoint joins per start.
func StarPaths(k, m int) []ast.Atom {
	var out []ast.Atom
	for i := 0; i < k; i++ {
		start := k*m + 1 + i
		end := k*m + k + 1 + i
		out = append(out, ast.NewAtom("startPoint", num(start)))
		out = append(out, ast.NewAtom("endPoint", num(end)))
		out = append(out, ast.NewAtom("path", num(start), num(end)))
		for j := 0; j < m; j++ {
			out = append(out, ast.NewAtom("path", num(start), num(i*m+j+1)))
		}
	}
	return out
}
