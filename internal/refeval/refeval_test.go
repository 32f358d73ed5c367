package refeval

import (
	"reflect"
	"testing"

	"repro/internal/parser"
)

// The expected sets are worked out by hand from the rules, not taken
// from any evaluator.
func TestHandComputed(t *testing.T) {
	cases := []struct {
		name, src string
		eval      map[string][]string
		answers   []string
	}{
		{
			name: "transitive closure of a 4-chain",
			src: `
				path(X, Y) :- step(X, Y).
				path(X, Y) :- step(X, Z), path(Z, Y).
				step(1, 2). step(2, 3). step(3, 4).
				?- path.
			`,
			eval: map[string][]string{"path": {
				"path(1, 2)", "path(1, 3)", "path(1, 4)",
				"path(2, 3)", "path(2, 4)", "path(3, 4)",
			}},
			answers: []string{
				"path(1, 2)", "path(1, 3)", "path(1, 4)",
				"path(2, 3)", "path(2, 4)", "path(3, 4)",
			},
		},
		{
			// 2 is blocked, so nothing leaves 2: reach loses (2, 3) and
			// with it (1, 3); facts given for the IDB predicate reach are
			// not part of it; idle has rules and derives nothing.
			name: "negated EDB atom",
			src: `
				reach(X, Y) :- edge(X, Y), !blocked(X).
				reach(X, Y) :- edge(X, Z), reach(Z, Y), !blocked(X).
				idle(X) :- blocked(X), edge(X, X).
				edge(1, 2). edge(2, 3). edge(3, 4). blocked(2). reach(9, 9).
				?- reach.
			`,
			eval: map[string][]string{
				"reach": {"reach(1, 2)", "reach(3, 4)"},
				"idle":  {},
			},
			answers: []string{"reach(1, 2)", "reach(3, 4)"},
		},
		{
			// up keeps the increasing edges; the goal keeps those from 1.
			name: "order atom and goal restriction",
			src: `
				up(X, Y) :- e(X, Y), X < Y.
				up(X, Z) :- up(X, Y), e(Y, Z), Y < Z.
				e(1, 2). e(2, 1). e(2, 5). e(5, 3). e(1, 1).
				?- up(1, Y).
			`,
			eval:    map[string][]string{"up": {"up(1, 2)", "up(1, 5)", "up(2, 5)"}},
			answers: []string{"up(1, 2)", "up(1, 5)"},
		},
	}
	for _, c := range cases {
		u, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := Eval(u.Program, u.Facts); !reflect.DeepEqual(got, c.eval) {
			t.Errorf("%s: Eval = %v, want %v", c.name, got, c.eval)
		}
		if got := Answers(u.Program, u.Facts); !reflect.DeepEqual(got, c.answers) {
			t.Errorf("%s: Answers = %v, want %v", c.name, got, c.answers)
		}
	}
}
