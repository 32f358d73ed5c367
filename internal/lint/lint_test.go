package lint

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func runOn(t *testing.T, progSrc, icsSrc, factsSrc string) *Report {
	t.Helper()
	p, err := parser.ParseProgram(progSrc)
	if err != nil {
		t.Fatal(err)
	}
	ics, err := parser.ParseICs(icsSrc)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := parser.ParseFacts(factsSrc)
	if err != nil {
		t.Fatal(err)
	}
	return Run(context.Background(), p, ics, facts, Options{})
}

func findingIDs(rep *Report) map[string]int {
	out := map[string]int{}
	for _, f := range rep.Findings {
		out[f.ID]++
	}
	return out
}

func TestUnsatBody(t *testing.T) {
	rep := runOn(t, `
q(X) :- a(X, Y), b(Y, X).
q(X) :- a(X, Y), a(Y, X).
?- q.
`, `:- a(X, Y), b(Y, Z).`, ``)
	ids := findingIDs(rep)
	if ids["unsat-body"] != 1 {
		t.Fatalf("want exactly one unsat-body finding, got %v", rep.Findings)
	}
	if rep.Errors != 1 {
		t.Errorf("want 1 error, got %d", rep.Errors)
	}
	// The finding must point at the offending rule (line 2).
	for _, f := range rep.Findings {
		if f.ID == "unsat-body" && f.Line != 2 {
			t.Errorf("unsat-body at line %d, want 2", f.Line)
		}
	}
}

func TestEmptyPredicateAndDeadRule(t *testing.T) {
	rep := runOn(t, `
p(X) :- a(X, Y), b(Y, Z).
q(X) :- p(X).
r(X) :- c(X, X).
?- r.
`, `:- a(X, Y), b(Y, Z).`, ``)
	ids := findingIDs(rep)
	if ids["unsat-body"] != 1 {
		t.Errorf("want unsat-body for p's rule, got %v", rep.Findings)
	}
	if ids["empty-predicate"] != 2 {
		t.Errorf("want empty-predicate for p and q, got %v", rep.Findings)
	}
	if ids["dead-rule"] != 1 {
		t.Errorf("want dead-rule for q's rule, got %v", rep.Findings)
	}
	if ids["query-empty"] != 0 {
		t.Errorf("query r is satisfiable, got %v", rep.Findings)
	}
}

func TestQueryEmpty(t *testing.T) {
	rep := runOn(t, `
p(X) :- a(X, Y), b(Y, Z).
?- p.
`, `:- a(X, Y), b(Y, Z).`, ``)
	ids := findingIDs(rep)
	if ids["query-empty"] != 1 {
		t.Fatalf("want query-empty, got %v", rep.Findings)
	}
}

// Satisfiable bodies whose only witnesses lie below a large negative
// number or above a string constant are not L1/L2 errors.
func TestNoFalseUnsatAroundConstants(t *testing.T) {
	for _, body := range []string{
		`e(X), X < -5000000000`,
		`e(X), X > "a"`,
		`e(X), e(Y), X > "a", Y > X`,
	} {
		rep := runOn(t, "p(X) :- "+body+".\n?- p.\n", ``, ``)
		ids := findingIDs(rep)
		if ids["unsat-body"] != 0 || ids["query-empty"] != 0 || rep.Errors != 0 {
			t.Errorf("p(X) :- %s: want no unsat-body/query-empty errors, got %v", body, rep.Findings)
		}
	}
}

func TestUnreachableRule(t *testing.T) {
	rep := runOn(t, `
p(X) :- a(X, X).
q(X) :- b(X, X).
?- p.
`, ``, ``)
	ids := findingIDs(rep)
	if ids["unreachable-rule"] != 1 {
		t.Fatalf("want unreachable-rule for q, got %v", rep.Findings)
	}
}

func TestSubsumedRule(t *testing.T) {
	rep := runOn(t, `
s(X) :- e(X, Y).
s(X) :- e(X, Y), f(Y, Y).
?- s.
`, ``, ``)
	var lines []int
	for _, f := range rep.Findings {
		if f.ID == "subsumed-rule" {
			lines = append(lines, f.Line)
		}
	}
	// The more specific rule (line 3) is subsumed by the general one;
	// the general one must not be flagged.
	if !reflect.DeepEqual(lines, []int{3}) {
		t.Fatalf("subsumed-rule lines %v, want [3]; findings: %v", lines, rep.Findings)
	}
}

func TestEquivalentRulesFlagOnlyOne(t *testing.T) {
	rep := runOn(t, `
s(X) :- e(X, Y), e(X, Z).
s(A) :- e(A, B).
?- s.
`, ``, ``)
	n := findingIDs(rep)["subsumed-rule"]
	if n != 1 {
		t.Fatalf("equivalent rules: want exactly one subsumed-rule finding, got %d: %v", n, rep.Findings)
	}
}

func TestGuardrails(t *testing.T) {
	rep := runOn(t, `
p(X) :- a(X, Y).
?- p.
`, `
:- a(X, Y), X < Z, c(Z, Z).
:- a(X, Y), !b(Y, X).
:- a(X, Y), !b(Y, Z), c(Z, Z).
`, ``)
	ids := findingIDs(rep)
	if ids["nonlocal-order"] != 1 {
		t.Errorf("want nonlocal-order for ic 1, got %v", rep.Findings)
	}
	if ids["nonlocal-negation"] != 1 {
		t.Errorf("want nonlocal-negation for ic 3, got %v", rep.Findings)
	}
	if ids["neg-edb-ic"] != 1 {
		t.Errorf("want neg-edb-ic for ic 2, got %v", rep.Findings)
	}
}

func TestHygiene(t *testing.T) {
	rep := runOn(t, `
p(X) :- a(X, Y), b(Y).
w(X) :- e(X, Y).
?- p.
`, ``, `c(1, 2). c(3, 4).`)
	ids := findingIDs(rep)
	if ids["singleton-var"] == 0 {
		t.Errorf("want singleton-var for w's rule, got %v", rep.Findings)
	}
	if ids["unused-edb"] != 1 {
		t.Errorf("want unused-edb for c, got %v", rep.Findings)
	}
}

func TestArityMismatchGatesSemantics(t *testing.T) {
	rep := runOn(t, `
p(X) :- a(X, Y).
q(X) :- a(X).
?- p.
`, ``, ``)
	ids := findingIDs(rep)
	if ids["arity-mismatch"] != 1 {
		t.Fatalf("want arity-mismatch, got %v", rep.Findings)
	}
	for _, id := range []string{"unsat-body", "empty-predicate", "subsumed-rule", "unreachable-rule"} {
		if ids[id] != 0 {
			t.Errorf("semantic check %s ran despite structural error: %v", id, rep.Findings)
		}
	}
}

func TestUnsafeRule(t *testing.T) {
	rep := runOn(t, `
p(X) :- a(Y, Y).
?- p.
`, ``, ``)
	if findingIDs(rep)["unsafe-rule"] != 1 {
		t.Fatalf("want unsafe-rule, got %v", rep.Findings)
	}
	if !rep.HasErrors() {
		t.Error("unsafe rule must be an error")
	}
}

func TestCleanProgramNoFindings(t *testing.T) {
	rep := runOn(t, `
p(X, Y) :- a(X, Y), b(Y).
?- p.
`, `:- a(X, Y), Y <= X.`, `a(1, 2). b(2).`)
	if len(rep.Findings) != 0 {
		t.Fatalf("clean program: want no findings, got %v", rep.Findings)
	}
}

// A self-recursive program that is not provably bounded gets exactly
// one advisory: the honest L7 budget note, at Info severity — never a
// Warning or Error, so recursion is not misreported as a defect.
func TestRecursiveProgramOnlyBoundednessInfo(t *testing.T) {
	rep := runOn(t, `
p(X, Y) :- a(X, Y).
p(X, Y) :- a(X, Z), p(Z, Y).
?- p.
`, `:- a(X, Y), Y <= X.`, `a(1, 2).`)
	if len(rep.Findings) != 1 || rep.Findings[0].ID != "boundedness-budget" || rep.Findings[0].Severity != Info {
		t.Fatalf("want exactly the L7 boundedness-budget info, got %v", rep.Findings)
	}
	if rep.HasErrors() {
		t.Error("boundedness advisory must not be an error")
	}
}

// TestBoundedRecursionFindings drives L7's three verdicts: a bounded
// predicate, which the engine compiles away, reports nothing.
func TestBoundedRecursionFindings(t *testing.T) {
	rep := runOn(t, `
buys(X, Y) :- likes(X, Y).
buys(X, Y) :- trendy(X), buys(Z, Y).
?- buys.
`, ``, ``)
	for _, f := range rep.Findings {
		if f.Check == "L7" {
			t.Fatalf("a bounded predicate must report no L7 finding, got %v", rep.Findings)
		}
	}

	// Out-of-scope recursion (a self-recursive predicate entangled in
	// mutual recursion) is Unknown.
	rep = runOn(t, `
p(X) :- base(X).
p(X) :- link(X, Y), p(Y).
p(X) :- q(X).
q(X) :- hop(X, Y), p(Y).
?- p.
`, ``, ``)
	if findingIDs(rep)["boundedness-unknown"] != 1 {
		t.Fatalf("want boundedness-unknown info, got %v", rep.Findings)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() *Report {
		return runOn(t, `
p(X) :- a(X, Y), b(Y, X).
q(X) :- p(X).
s(X) :- e(X, Y).
s(X) :- e(X, Y), f(Y, Y).
?- q.
`, `:- a(X, Y), b(Y, Z). :- e(X, Y), !f(X, Y).`, ``)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Findings, b.Findings) {
		t.Fatalf("nondeterministic findings:\n%v\nvs\n%v", a.Findings, b.Findings)
	}
}

func TestCancelledContextDegradesToUnknown(t *testing.T) {
	p, err := parser.ParseProgram(`
p(X) :- a(X, Y), b(Y, X).
?- p.
`)
	if err != nil {
		t.Fatal(err)
	}
	ics, err := parser.ParseICs(`:- a(X, Y), b(Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := Run(ctx, p, ics, nil, Options{})
	for _, f := range rep.Findings {
		if f.Severity == Error {
			t.Errorf("cancelled run must not claim errors, got %v", f)
		}
	}
	if findingIDs(rep)["aborted"] != 1 {
		t.Errorf("want aborted note, got %v", rep.Findings)
	}
}

func TestGoalDirectedAdvisory(t *testing.T) {
	// A bound goal the magic-sets rewrite applies to: the engine
	// evaluates it goal-directed, so there is nothing to advise.
	p, err := parser.ParseProgram(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
?- path(1, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(context.Background(), p, nil, nil, Options{})
	if ids := findingIDs(rep); ids["bound-query-no-magic"] != 0 {
		t.Fatalf("a point query the rewrite applies to should not warn: %v", rep.Findings)
	}

	// Unbound goals and goal-less queries are not point queries.
	for _, goal := range []string{"?- path(X, Y).", "?- path."} {
		p, err := parser.ParseProgram(`
path(X, Y) :- edge(X, Y).
` + goal + `
`)
		if err != nil {
			t.Fatal(err)
		}
		rep := Run(context.Background(), p, nil, nil, Options{})
		if ids := findingIDs(rep); ids["bound-query-no-magic"] != 0 {
			t.Fatalf("goal %q should not warn: %v", goal, rep.Findings)
		}
	}

	// Bound goal where the rewrite is structurally inapplicable (the
	// query predicate has no rules): the engine falls back to
	// bottom-up evaluation, and the warning cites the adornment and
	// says why.
	p, err = parser.ParseProgram(`
p(X, Y) :- e(X, Y).
?- q(1).
`)
	if err != nil {
		t.Fatal(err)
	}
	rep = Run(context.Background(), p, nil, nil, Options{})
	found := false
	for _, f := range rep.Findings {
		if f.ID != "bound-query-no-magic" {
			continue
		}
		found = true
		if f.Severity != Warning {
			t.Errorf("severity = %v, want warning", f.Severity)
		}
		for _, want := range []string{"q#b", "binds 1 of 1", "does not apply"} {
			if !strings.Contains(f.Message, want) {
				t.Errorf("message %q missing %q", f.Message, want)
			}
		}
	}
	if !found {
		t.Fatalf("inapplicable rewrite on a bound goal should warn: %v", rep.Findings)
	}
}

// TestWriteTextFiles holds WriteText's attribution: a finding prints
// under the file its line falls in, at its line within that file, and a
// finding with no position under the first file; a position its message
// cites prints at its line in its own file, named when that is another.
func TestWriteTextFiles(t *testing.T) {
	rep := &Report{Findings: []Finding{
		{Check: "lint", ID: "aborted", Message: "m0"},
		{Check: "L7", ID: "x", Line: 3, Col: 1, Message: "m1"},
		{Check: "L5", ID: "y", Line: 4, Col: 2, Message: "m2"},
		{Check: "L5", ID: "z", Line: 9, Col: 1, Message: "m3"},
		{Check: "L5", ID: "r", Line: 5, Col: 1, Ref: ast.At(4, 1), Message: "m4 at 4:1"},
		{Check: "L5", ID: "r", Line: 5, Col: 1, Ref: ast.At(2, 3), Message: "m5 at 2:3"},
	}, Infos: 6}
	var b strings.Builder
	if err := WriteText(&b, rep, File{Name: "in.dl", Lines: 3}, File{Name: "f.facts", Lines: 2}, File{Name: "g.facts"}); err != nil {
		t.Fatal(err)
	}
	want := `in.dl: info: [lint/aborted] m0
in.dl:3:1: info: [L7/x] m1
f.facts:1:2: info: [L5/y] m2
g.facts:4:1: info: [L5/z] m3
f.facts:2:1: info: [L5/r] m4 at 1:1
f.facts:2:1: info: [L5/r] m5 at in.dl:2:3
0 error(s), 0 warning(s), 6 info(s)
`
	if b.String() != want {
		t.Errorf("got\n%swant\n%s", b.String(), want)
	}
}
