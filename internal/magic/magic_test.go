package magic

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// ruleStrings renders every rewritten rule for shape assertions.
func ruleStrings(p *ast.Program) []string {
	out := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		out[i] = r.String()
	}
	return out
}

func containsRule(t *testing.T, p *ast.Program, want string) {
	t.Helper()
	for _, s := range ruleStrings(p) {
		if s == want {
			return
		}
	}
	t.Errorf("rewritten program missing rule %q; have:\n  %s",
		want, strings.Join(ruleStrings(p), "\n  "))
}

func TestRewriteRightLinearTC(t *testing.T) {
	p := mustParse(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(a, Y).
	`)
	res, err := Rewrite(p)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if res.Pattern != "bf" {
		t.Errorf("pattern = %q, want bf", res.Pattern)
	}
	out := res.Program
	if out.Query != "path#bf" {
		t.Errorf("query = %q, want path#bf", out.Query)
	}
	// The seed must be a rule (bodiless ground head), not a fact: the
	// engines read predicates with rules exclusively from the IDB.
	containsRule(t, out, `magic#path#bf(a).`)
	// Base case restricted by demand.
	containsRule(t, out, `path#bf(X, Y) :- magic#path#bf(X), edge(X, Y).`)
	// The recursive rule factors its prefix into a supplementary
	// predicate feeding both the demand rule and the continuation.
	containsRule(t, out, `sup#1#1#bf(X, Z) :- magic#path#bf(X), edge(X, Z).`)
	containsRule(t, out, `magic#path#bf(Z) :- sup#1#1#bf(X, Z).`)
	containsRule(t, out, `path#bf(X, Y) :- sup#1#1#bf(X, Z), path#bf(Z, Y).`)
	if res.MagicRules != 1 || res.SupRules != 1 {
		t.Errorf("MagicRules=%d SupRules=%d, want 1 and 1", res.MagicRules, res.SupRules)
	}
	if err := out.Validate(); err != nil {
		t.Errorf("rewritten program fails validation: %v", err)
	}
}

func TestRewriteLeftLinearTCSkipsIdentityMagic(t *testing.T) {
	p := mustParse(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		?- path(a, Y).
	`)
	res, err := Rewrite(p)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	// The recursive call repeats the head's binding pattern on the same
	// bound variable, so its demand rule would be magic :- magic and
	// must be skipped (it would otherwise be a useless self-loop).
	if res.MagicRules != 0 {
		t.Errorf("MagicRules = %d, want 0 (identity demand rule must be skipped):\n  %s",
			res.MagicRules, strings.Join(ruleStrings(res.Program), "\n  "))
	}
	containsRule(t, res.Program, `path#bf(X, Y) :- magic#path#bf(X), path#bf(X, Z), edge(Z, Y).`)
	if err := res.Program.Validate(); err != nil {
		t.Errorf("rewritten program fails validation: %v", err)
	}
}

func TestRewriteAttachesFiltersEarly(t *testing.T) {
	// X > 0 only needs the prefix variables, so it must move onto the
	// supplementary rule and prune demand before the recursive call.
	p := mustParse(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y), X > 0, Y != X.
		?- path(1, Y).
	`)
	res, err := Rewrite(p)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	containsRule(t, res.Program, `sup#1#1#bf(X, Z) :- magic#path#bf(X), edge(X, Z), X > 0.`)
	containsRule(t, res.Program, `path#bf(X, Y) :- sup#1#1#bf(X, Z), path#bf(Z, Y), Y != X.`)
}

func TestRewriteCopiesFreePredicatesVerbatim(t *testing.T) {
	// The second subgoal receives no bindings (the join variable W
	// appears only later), so r is evaluated bottom-up under its
	// original name, along with its transitive dependency s.
	p := mustParse(t, `
		q(Y) :- anchor(X), r(Z, W), link(X, Y, Z, W).
		r(A, B) :- s(A, B).
		s(A, B) :- base(A, B).
		?- q(c).
	`)
	res, err := Rewrite(p)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	containsRule(t, res.Program, `r(A, B) :- s(A, B).`)
	containsRule(t, res.Program, `s(A, B) :- base(A, B).`)
	if err := res.Program.Validate(); err != nil {
		t.Errorf("rewritten program fails validation: %v", err)
	}
}

func TestRewriteNotApplicable(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no goal", `p(X) :- e(X). ?- p.`},
		{"all free", `p(X, Y) :- e(X, Y). ?- p(A, B).`},
		{"no rules for query", `p(X) :- e(X). ?- q(a).`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustParse(t, tc.src)
			if tc.name == "no rules for query" {
				p.Query = "q"
				p.Goal = []ast.Term{ast.S("a")}
			}
			if _, err := Rewrite(p); !errors.Is(err, ErrNotApplicable) {
				t.Errorf("Rewrite err = %v, want ErrNotApplicable", err)
			}
		})
	}
}

func TestRewriteGoalArityMismatch(t *testing.T) {
	p := mustParse(t, `p(X, Y) :- e(X, Y). ?- p.`)
	p.Goal = []ast.Term{ast.S("a")} // p has arity 2
	if _, err := Rewrite(p); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("Rewrite err = %v, want ErrNotApplicable", err)
	}
}

func TestRewriteAdornmentBlowupCapped(t *testing.T) {
	// A wide predicate demanded under many distinct patterns through a
	// chain of permuting rules. Rather than construct a genuine
	// exponential case, check the cap machinery directly with a
	// program whose rewrite exceeds maxRules via many rules.
	var b strings.Builder
	b.WriteString("q(X) :- e0(X), p0(X).\n")
	for i := 0; i < maxRules; i++ {
		b.WriteString("p0(X) :- e" + strings.Repeat("y", i%4) + "(X).\n")
	}
	b.WriteString("?- q(a).\n")
	p := mustParse(t, b.String())
	if _, err := Rewrite(p); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("Rewrite err = %v, want ErrNotApplicable for oversized output", err)
	}
}

func TestRewriteMultipleBoundPositions(t *testing.T) {
	p := mustParse(t, `
		same(X, Y) :- eq(X, Y).
		same(X, Y) :- eq(X, Z), same(Z, Y).
		?- same(a, b).
	`)
	res, err := Rewrite(p)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if res.Pattern != "bb" {
		t.Errorf("pattern = %q, want bb", res.Pattern)
	}
	containsRule(t, res.Program, `magic#same#bb(a, b).`)
	// The recursive call binds Z (from eq) and Y (from the head
	// pattern), so demand propagates as bb. The supplementary carries
	// X and Y too — the adorned head rule still needs them.
	containsRule(t, res.Program, `magic#same#bb(Z, Y) :- sup#1#1#bb(X, Y, Z).`)
}

func TestRewriteRepeatedGoalVariableTreatedFree(t *testing.T) {
	// Repeated variables carry no constant binding; the goal p(V, V)
	// adorns ff and the rewrite must refuse (QueryCtx filters the
	// diagonal after bottom-up evaluation instead).
	p := mustParse(t, `p(X, Y) :- e(X, Y). ?- p(V, V).`)
	if _, err := Rewrite(p); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("Rewrite err = %v, want ErrNotApplicable", err)
	}
}

func TestUnfoldPipeline(t *testing.T) {
	p := mustParse(t, `
		mid(X, Y) :- e(X, Y).
		q(X, Y) :- mid(X, Z), f(Z, Y).
		?- q.
	`)
	out, n := Unfold(p)
	if n != 1 {
		t.Fatalf("eliminated = %d, want 1", n)
	}
	containsRule(t, out, `q(X, Y) :- e(X, Z), f(Z, Y).`)
	for _, r := range out.Rules {
		if r.Head.Pred == "mid" {
			t.Errorf("producer rule survived: %s", r)
		}
	}
	if err := out.Validate(); err != nil {
		t.Errorf("unfolded program fails validation: %v", err)
	}
}

func TestUnfoldChain(t *testing.T) {
	// A three-stage pipeline collapses entirely into the consumer.
	p := mustParse(t, `
		a(X, Y) :- e(X, Y).
		b(X, Y) :- a(X, Z), f(Z, Y).
		q(X, Y) :- b(X, Z), g(Z, Y).
		?- q.
	`)
	out, n := Unfold(p)
	if n != 2 {
		t.Fatalf("eliminated = %d, want 2", n)
	}
	if len(out.Rules) != 1 {
		t.Fatalf("rules = %d, want 1:\n  %s", len(out.Rules), strings.Join(ruleStrings(out), "\n  "))
	}
	if err := out.Validate(); err != nil {
		t.Errorf("unfolded program fails validation: %v", err)
	}
}

func TestUnfoldSkipsRecursiveAndShared(t *testing.T) {
	p := mustParse(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		twice(X, Y) :- help(X, Y).
		thrice(X, Y) :- help(X, Y).
		help(X, Y) :- e(X, Y).
		q(X) :- path(X, X), twice(X, X), thrice(X, X).
		?- q.
	`)
	before := len(p.Rules)
	out, n := Unfold(p)
	// path is recursive, help has two consumers; only twice and thrice
	// (each consumed once by q) unfold.
	if n != 2 {
		t.Fatalf("eliminated = %d, want 2:\n  %s", n, strings.Join(ruleStrings(out), "\n  "))
	}
	if len(out.Rules) != before-2 {
		t.Errorf("rules = %d, want %d", len(out.Rules), before-2)
	}
	for _, r := range out.Rules {
		if r.Head.Pred == "twice" || r.Head.Pred == "thrice" {
			t.Errorf("producer rule survived: %s", r)
		}
	}
}

func TestUnfoldRenamesApartFromEarlierUnfolds(t *testing.T) {
	// Unfolding a leaves a's body variable in q as Z_1; b's own Z must
	// then be renamed past it, or q would join b's middle with c's input.
	p := mustParse(t, `
		a(X, Y) :- b(X, Z), c(Z, Y).
		b(X, Y) :- e(X, Z), f(Z, Y).
		c(X, Y) :- g(X, Y).
		q(X, Y) :- a(X, Y).
		?- q.
	`)
	out, n := Unfold(p)
	if n != 3 {
		t.Fatalf("eliminated = %d, want 3:\n  %s", n, strings.Join(ruleStrings(out), "\n  "))
	}
	containsRule(t, out, `q(X, Y) :- e(X, Z_2), f(Z_2, Z_1), g(Z_1, Y).`)
}

func TestUnfoldMultiRuleProducer(t *testing.T) {
	// A producer with two rules splits the consumer into two rules.
	p := mustParse(t, `
		src(X) :- red(X).
		src(X) :- blue(X).
		q(X, Y) :- src(X), pair(X, Y).
		?- q.
	`)
	out, n := Unfold(p)
	if n != 1 {
		t.Fatalf("eliminated = %d, want 1", n)
	}
	containsRule(t, out, `q(X, Y) :- red(X), pair(X, Y).`)
	containsRule(t, out, `q(X, Y) :- blue(X), pair(X, Y).`)
}

func TestUnfoldConstantHeadUnification(t *testing.T) {
	// Producer heads with constants filter the consumer at rewrite
	// time; a non-unifiable producer contributes no rule.
	p := mustParse(t, `
		tag(red, X) :- r(X).
		tag(blue, X) :- b(X).
		q(X) :- tag(red, X).
		?- q.
	`)
	out, n := Unfold(p)
	if n != 1 {
		t.Fatalf("eliminated = %d, want 1", n)
	}
	containsRule(t, out, `q(X) :- r(X).`)
	for _, s := range ruleStrings(out) {
		if strings.Contains(s, "b(") {
			t.Errorf("non-unifiable producer leaked into output: %s", s)
		}
	}
}

func TestUnfoldKeepsQueryPredicate(t *testing.T) {
	// The query predicate must never be unfolded away, even when some
	// other rule consumes it exactly once.
	p := mustParse(t, `
		q(X, Y) :- e(X, Y).
		wrap(X, Y) :- q(X, Y).
		?- q.
	`)
	out, _ := Unfold(p)
	found := false
	for _, r := range out.Rules {
		if r.Head.Pred == "q" {
			found = true
		}
	}
	if !found {
		t.Fatalf("query predicate unfolded away:\n  %s", strings.Join(ruleStrings(out), "\n  "))
	}
}

func TestUnfoldPreservesGoal(t *testing.T) {
	p := mustParse(t, `
		mid(X, Y) :- e(X, Y).
		q(X, Y) :- mid(X, Z), f(Z, Y).
		?- q(a, Y).
	`)
	out, n := Unfold(p)
	if n != 1 {
		t.Fatalf("eliminated = %d, want 1", n)
	}
	if out.Query != "q" || len(out.Goal) != 2 || !out.Goal[0].Equal(ast.S("a")) {
		t.Errorf("query/goal not preserved: query=%q goal=%v", out.Query, out.Goal)
	}
}

// TestBindMatchesRewrite: rewriting at one goal and binding another of
// the same pattern renders exactly as rewriting at the second goal, and
// leaves the first rewrite as it was.
func TestBindMatchesRewrite(t *testing.T) {
	render := func(p *ast.Program) string { return p.String() + "?- " + p.GoalAtom().String() }
	for _, c := range []struct{ rules, g1, g2 string }{
		{"path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n", "path(a, Y)", "path(b, Y)"},
		{"path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y).\n", "path(X, 1)", "path(X, 2)"},
		{"path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n", "path(1, 2)", "path(3, 4)"},
		{"q(X, Y, W) :- a(X, Z), p(Z, W), b(W, Y), X < Y, !c(W).\np(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n", "q(1, Y, Y)", "q(2, V, V)"},
	} {
		p1, p2 := mustParse(t, c.rules+"?- "+c.g1+"."), mustParse(t, c.rules+"?- "+c.g2+".")
		r1, err := Rewrite(p1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Rewrite(p2)
		if err != nil {
			t.Fatal(err)
		}
		before := render(r1.Program)
		if got, want := render(r1.Bind(p2.Goal)), render(r2.Program); got != want {
			t.Errorf("Bind(Rewrite(%s), %s):\n%s\nRewrite at %s:\n%s", c.g1, c.g2, got, c.g2, want)
		}
		if after := render(r1.Program); after != before {
			t.Errorf("Bind wrote the rewrite it binds:\n%s\nwas\n%s", after, before)
		}
	}
}
