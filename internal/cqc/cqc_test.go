package cqc

import (
	"testing"

	"repro/internal/parser"
)

func cq(t *testing.T, src string) CQ {
	t.Helper()
	return parser.MustParseProgram(src).Rules[0]
}

func TestContainedOrderComplete(t *testing.T) {
	for _, c := range []struct {
		name, q1, q2     string
		sound, contained bool
	}{
		// Whichever of U, V is smaller, one r atom runs upward, but no
		// single mapping works in every linearization: only the case
		// split over linearizations proves containment.
		{"case split", `q(W) :- r(U, V), r(V, U), s(W).`, `q(W) :- r(A, B), s(W), A <= B.`, false, true},
		// The linearization V < U has no upward r atom.
		{"not contained", `q(W) :- r(U, V), s(W).`, `q(W) :- r(A, B), s(W), A <= B.`, false, false},
		// An unsatisfiable q1 is the empty query, contained in anything.
		{"unsatisfiable q1", `q(W) :- r(U, V), s(W), U < V, V < U.`, `q(W) :- t(W).`, true, true},
		// Constants take part in the linearizations: U > 5 pins the
		// order against 3 for every placement.
		{"constant", `q(U) :- r(U), U > 5.`, `q(A) :- r(A), A > 3.`, true, true},
	} {
		q1, q2 := cq(t, c.q1), cq(t, c.q2)
		if got, err := ContainedOrder(q1, q2); err != nil || got != c.sound {
			t.Errorf("%s: ContainedOrder = %v, %v; want %v", c.name, got, err, c.sound)
		}
		if got, err := ContainedOrderComplete(q1, q2); err != nil || got != c.contained {
			t.Errorf("%s: ContainedOrderComplete = %v, %v; want %v", c.name, got, err, c.contained)
		}
	}
}

func TestContainedOrderCompleteRejectsNegation(t *testing.T) {
	if _, err := ContainedOrderComplete(cq(t, `q(X) :- r(X), !s(X).`), cq(t, `q(X) :- r(X).`)); err == nil {
		t.Fatal("negation must be refused")
	}
}
