package qtree

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adorn"
	"repro/internal/parser"
	"repro/internal/workload"
)

// corpusSources are the inline sources of compileCorpus
// (compile_golden_test.go at the module root): Figure 1, the goodpath
// sources of E1 and E2 and of the quickstart, funcdep (all-free and
// point goals) and trendy.
var corpusSources = []struct{ name, src string }{
	{"figure1", figure1Program + figure1IC},
	{"e1-goodpath", "goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).\n?- goodPath.\n" +
		":- startPoint(X), endPoint(Y), Y <= X.\n"},
	{"e2-threshold", goodPathProgram + ":- startPoint(X), step(X, Y), X < 100.\n:- step(X, Y), X >= Y.\n"},
	{"quickstart", goodPathProgram + ":- startPoint(X), endPoint(Y), Y <= X.\n"},
	{"funcdep", "conflict(E) :- manages(E, M1), manages(E, M2), M1 < M2.\n" +
		"boss(E, M) :- manages(E, M).\nboss(E, M) :- manages(E, X), boss(X, M).\n" +
		"top(E, M) :- boss(E, M), ceo(M).\n?- top.\n:- manages(E, M1), manages(E, M2), M1 != M2.\n"},
	{"funcdep-point", "conflict(E) :- manages(E, M1), manages(E, M2), M1 < M2.\n" +
		"boss(E, M) :- manages(E, M).\nboss(E, M) :- manages(E, X), boss(X, M).\n" +
		"top(E, M) :- boss(E, M), ceo(M).\n?- top(1, M).\n:- manages(E, M1), manages(E, M2), M1 != M2.\n"},
	{"trendy", "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).\n?- buys(0, Y).\n"},
}

const goodPathProgram = `
	path(X, Y) :- step(X, Y).
	path(X, Y) :- step(X, Z), path(Z, Y).
	goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
	?- goodPath.
`

// lintExamples returns the name and text of every examples/lint/*.dl.
func lintExamples(tb testing.TB) [][2]string {
	tb.Helper()
	files, err := filepath.Glob("../../examples/lint/*.dl")
	if err != nil || len(files) == 0 {
		tb.Fatalf("examples/lint: %v (%d files)", err, len(files))
	}
	var out [][2]string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, [2]string{filepath.Base(f), string(src)})
	}
	return out
}

// checkRegistrationOrder holds a bottom-up result to the invariant
// that makes every pair of P1 productive: each adornment has a first
// adorned rule, and that rule's IDB child adornments were registered
// before it. An adornment is registered together with its first rule,
// so "before" is "with a first rule of a smaller index".
func checkRegistrationOrder(res *adorn.Result) error {
	first := func(pred string, id int) (int, error) {
		ris := res.RulesByHead[pred][id]
		if len(ris) == 0 {
			return 0, fmt.Errorf("%s^a%d: no adorned rule derives it", pred, id)
		}
		if ar := res.Rules[ris[0]]; ar.HeadPred != pred || ar.HeadAdornID != id {
			return 0, fmt.Errorf("%s^a%d: its first rule %d has head %s^a%d", pred, id, ris[0], ar.HeadPred, ar.HeadAdornID)
		}
		return ris[0], nil
	}
	for pred, ads := range res.Adorn {
		for id := range ads {
			ri, err := first(pred, id)
			if err != nil {
				return err
			}
			ar := res.Rules[ri]
			for j, sub := range ar.Rule.Pos {
				if ar.ChildAdornIDs[j] < 0 {
					continue
				}
				ci, err := first(sub.Pred, ar.ChildAdornIDs[j])
				if err != nil {
					return err
				}
				if ci >= ri {
					return fmt.Errorf("%s^a%d: its first rule %d reads %s^a%d, registered with rule %d",
						pred, id, ri, sub.Pred, ar.ChildAdornIDs[j], ci)
				}
			}
		}
	}
	return nil
}

// checkExtractPairs holds extraction's pairs to the forest's: the
// (predicate, adornment) pairs Extract names are exactly those of
// Build's goal nodes.
func checkExtractPairs(t *Tree) error {
	nodes := map[pair]bool{}
	for _, n := range t.Nodes {
		nodes[pair{n.Pred, n.AdornID}] = true
	}
	named := reachablePairs(t.Res)
	for _, p := range named {
		if !nodes[p] {
			return fmt.Errorf("extraction names %s^a%d, which no goal node carries", p.pred, p.adornID)
		}
	}
	if len(named) != len(nodes) {
		return fmt.Errorf("extraction names %d pairs, the forest's goal nodes carry %d", len(named), len(nodes))
	}
	return nil
}

// TestEveryPairProductiveAndReached checks the two facts the optimizer
// relies on in place of the paper's pruning pass — every adornment is
// registered with a rule that reads only earlier adornments, and the
// pairs the query reaches are the forest's — over Figure 1, the
// compile-golden corpus, workload.RandomProgram seeds, the order-IC
// programs, random programs and the Theorem 5.1 family.
func TestEveryPairProductiveAndReached(t *testing.T) {
	type input struct{ name, prog, ics string }
	var inputs []input
	for _, c := range corpusSources {
		inputs = append(inputs, input{c.name, c.src, ""})
	}
	for _, f := range lintExamples(t) {
		inputs = append(inputs, input{f[0], f[1], ""})
	}
	for seed := int64(1); seed <= 20; seed++ {
		src, ics, _ := workload.RandomProgram(seed)
		inputs = append(inputs, input{fmt.Sprintf("random-%02d", seed), src, ics})
	}
	for i, ics := range orderICChoices {
		inputs = append(inputs, input{fmt.Sprintf("order-ic-%d", i), orderICProgram, ics})
	}
	for k := 1; k <= 3; k++ {
		src, ics := workload.Theorem51(k)
		inputs = append(inputs, input{fmt.Sprintf("theorem51-%d", k), src, ics})
	}
	for _, in := range inputs {
		u, err := parser.Parse(in.prog + "\n" + in.ics)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		out, err := OptimizeCtx(context.Background(), u.Program, u.ICs, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		checkInvariants(t, in.name, out)
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		prog, ics := randomProgram(rng)
		out, err := OptimizeCtx(context.Background(), prog, ics, DefaultOptions())
		if err != nil {
			continue // randomProgram may draw an invalid program
		}
		checkInvariants(t, fmt.Sprintf("random trial %d", trial), out)
	}
}

// checkInvariants fails t unless out's bottom-up result, forest,
// extracted program and verdict agree as the optimizer assumes.
func checkInvariants(t *testing.T, name string, out *Outcome) {
	t.Helper()
	if err := checkRegistrationOrder(out.Tree.Res); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := checkExtractPairs(out.Tree); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if hasRules := len(out.Program.RulesFor(out.Program.Query)) > 0; out.Satisfiable != hasRules {
		t.Fatalf("%s: Satisfiable = %v, but the extracted program has rules for %s: %v",
			name, out.Satisfiable, out.Program.Query, hasRules)
	}
	if out.Satisfiable && !out.Tree.Satisfiable() {
		t.Fatalf("%s: satisfiable without a root", name)
	}
}

// TestRegistrationOrderCheckerRejects is the negative control: hand-built
// results that break the invariant must fail the checker.
func TestRegistrationOrderCheckerRejects(t *testing.T) {
	rule := func(src string, head, child int) *adorn.AdornedRule {
		r := parser.MustParseProgram(src).Rules[0]
		ar := &adorn.AdornedRule{Rule: r, HeadPred: r.Head.Pred, HeadAdornID: head}
		for _, a := range r.Pos {
			if a.Pred == "p" {
				ar.ChildAdornIDs = append(ar.ChildAdornIDs, child)
			} else {
				ar.ChildAdornIDs = append(ar.ChildAdornIDs, -1)
			}
		}
		return ar
	}
	for _, c := range []struct {
		name   string
		rules  []*adorn.AdornedRule
		byHead map[int][]int
		want   string
	}{
		{
			// p^a0's only rule reads p^a1, whose first rule comes after it.
			name:   "reads a later adornment",
			rules:  []*adorn.AdornedRule{rule("p(X) :- e(X), p(X).", 0, 1), rule("p(X) :- e(X).", 1, -1)},
			byHead: map[int][]int{0: {0}, 1: {1}},
			want:   "p^a0: its first rule 0 reads p^a1, registered with rule 1",
		},
		{
			name:   "reads itself",
			rules:  []*adorn.AdornedRule{rule("p(X) :- e(X), p(X).", 0, 0), rule("p(X) :- e(X).", 1, -1)},
			byHead: map[int][]int{0: {0}, 1: {1}},
			want:   "p^a0: its first rule 0 reads p^a0, registered with rule 0",
		},
		{
			name:   "no rule",
			rules:  []*adorn.AdornedRule{rule("p(X) :- e(X).", 0, -1)},
			byHead: map[int][]int{0: {0}},
			want:   "p^a1: no adorned rule derives it",
		},
	} {
		res := &adorn.Result{
			Adorn:       map[string][]*adorn.Adornment{"p": {{}, {}}},
			Rules:       c.rules,
			RulesByHead: map[string]map[int][]int{"p": c.byHead},
		}
		err := checkRegistrationOrder(res)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: checker says %v, want %q", c.name, err, c.want)
		}
	}
}
