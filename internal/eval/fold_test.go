package eval

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// foldShapes is foldRenaming's shape table. The closure rules are the
// optimizer's root shape; the database is chosen so that every wrong fold
// changes the answers: e is an acyclic chain (a closure that is not its
// own transpose), f(3, 9) hangs off the chain's end (a second rule for p
// whose rows the recursion must not see), and nothing is symmetric.
var foldShapes = []struct {
	name string
	src  string
	fold bool
}{
	{"one root", `p(X, Y) :- p_q0(X, Y).
		p_q0(X, Y) :- e(X, Y).
		p_q0(X, Y) :- e(X, Z), p_q0(Z, Y).`, true},
	{"chain p :- q, q :- s", `p(X, Y) :- q(X, Y).
		q(X, Y) :- s(X, Y).
		s(X, Y) :- e(X, Y).
		s(X, Y) :- e(X, Z), s(Z, Y).`, true},
	{"p in q's body", `p(X, Y) :- q(X, Y).
		q(X, Y) :- e(X, Y).
		q(X, Y) :- e(X, Z), p(Z, Y).`, true},
	{"zero arity", `p :- q.
		q :- e(X, Y), f(Y, Z).`, true},
	{"permuted head", `p(X, Y) :- q(Y, X).
		q(X, Y) :- e(X, Y).
		q(X, Y) :- e(X, Z), q(Z, Y).`, false},
	{"repeated variable", `p(X, X) :- q(X, X).
		q(X, Y) :- e(X, Y).
		q(X, Y) :- f(X, Y).
		q(X, Y) :- e(X, Z), q(Z, Y).
		q(X, Y) :- f(X, Z), q(Z, Y).`, false},
	{"constant", `p(X, 3) :- q(X, 3).
		q(X, Y) :- e(X, Y).
		q(X, Y) :- e(X, Z), q(Z, Y).`, false},
	{"order atom", `p(X, Y) :- q(X, Y), Y < 3.
		q(X, Y) :- e(X, Y).
		q(X, Y) :- e(X, Z), q(Z, Y).`, false},
	{"two rules for p", `p(X, Y) :- q(X, Y).
		p(X, Y) :- f(X, Y).
		q(X, Y) :- e(X, Y).
		q(X, Y) :- e(X, Z), q(Z, Y).`, false},
	{"q an EDB predicate", `p(X, Y) :- e(X, Y).
		r(X, Y) :- e(X, Z), p(Z, Y).`, false},
	{"negated atom", `p(X, Y) :- q(X, Y), !f(X, Y).
		q(X, Y) :- e(X, Y).`, false},
	{"q arity differs", `p(X, Y) :- q(X, Y).
		q(X, Y, Z) :- e(X, Y), f(Y, Z).`, false},
}

func foldDB() *DB {
	db := chainDB(4) // edge(0, 1) … edge(3, 4)
	for _, f := range parser.MustParseFacts(`e(1, 2). e(2, 3). e(3, 4). f(3, 9).`) {
		db.AddFact(f)
	}
	return db
}

// TestFoldRenamingShapes: the fold applies to exactly the renaming shapes
// and, applied or not, QueryCtx answers as the reference evaluator does
// on the program as written — so a fold of a permuted head, of a query
// predicate with a second rule, or onto an EDB predicate fails here on
// its answers, not just on the flag. A program whose arities disagree
// must stay an error.
func TestFoldRenamingShapes(t *testing.T) {
	db := foldDB()
	for _, c := range foldShapes {
		for _, goal := range []string{"?- p.", "?- p(1, Y)."} {
			p, err := parser.ParseProgram(c.src + goal)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(p.Goal) > 0 && len(p.Goal) != len(p.RulesFor("p")[0].Head.Args) {
				continue // the zero-arity shape has no point query
			}
			label := c.name + " " + goal
			before := p.String()
			folded := foldRenaming(p)
			if got := folded != p; got != c.fold {
				t.Fatalf("%s: folded = %v, want %v:\n%s", label, got, c.fold, folded)
			}
			if p.String() != before {
				t.Fatalf("%s: the caller's program was written:\n%s", label, p)
			}
			if c.fold && (len(folded.RulesFor("q")) > 0 || len(folded.RulesFor("p_q0")) > 0 || len(folded.RulesFor("s")) > 0) {
				t.Fatalf("%s: a renamed predicate survived the fold:\n%s", label, folded)
			}
			for _, magic := range []MagicMode{MagicAuto, MagicOff} {
				tuples, _, err := QueryCtx(context.Background(), p, db, Options{Magic: magic})
				if c.name == "q arity differs" {
					if err == nil {
						t.Fatalf("%s: an arity mismatch evaluated", label)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", label, magic, err)
				}
				requireAnswers(t, label+"/"+string(magic), p, db, tuples)
			}
		}
	}
}

// TestFoldRenamingNoOp: where nothing folds — the paper's multi-root
// union, every must-not-fold shape — the caller's program comes back as
// it is, and finding that out allocates nothing.
func TestFoldRenamingNoOp(t *testing.T) {
	progs := []*ast.Program{parser.MustParseProgram(`
		p(X, Y) :- p_q0(X, Y).
		p(X, Y) :- p_q1(X, Y).
		p_q0(X, Y) :- a(X, Y).
		p_q1(X, Y) :- b(X, Y).
		p_q1(X, Y) :- b(X, Z), p_q1(Z, Y).
		?- p.`)}
	for _, c := range foldShapes {
		if !c.fold {
			progs = append(progs, parser.MustParseProgram(c.src+"?- p."))
		}
	}
	for _, p := range progs {
		if got := foldRenaming(p); got != p {
			t.Fatalf("folded:\n%s\ninto\n%s", p, got)
		}
		if n := testing.AllocsPerRun(100, func() { foldRenaming(p) }); n != 0 {
			t.Fatalf("%.0f allocations to leave alone:\n%s", n, p)
		}
	}
}
