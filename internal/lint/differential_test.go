package lint

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/workload"
)

// TestDeadRulesDeletableDifferential is the soundness check behind the
// "may be deleted" wording: over random workload programs (augmented
// with rules the constraints doom), every rule the linter flags as
// deletable (unsat-body, dead-rule, subsumed-rule) can be removed
// without changing ANY relation of the full evaluation, and every rule
// flagged unreachable can be removed without changing the query
// answers.
func TestDeadRulesDeletableDifferential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			progSrc, icsSrc, facts := workload.RandomProgram(seed)
			// Inject rules the constraints doom: step is strictly
			// increasing (:- step(X,Y), X >= Y), so deadp's body is
			// unsatisfiable and deadq can only fire through deadp.
			progSrc += "deadp(X, Y) :- step(X, Y), Y <= X.\n"
			progSrc += "deadq(X) :- deadp(X, Y), mark(Y).\n"
			p, err := parser.ParseProgram(progSrc)
			if err != nil {
				t.Fatal(err)
			}
			ics, err := parser.ParseICs(icsSrc)
			if err != nil {
				t.Fatal(err)
			}
			rep := Run(context.Background(), p, ics, facts, Options{})

			deletable := map[ast.Pos]bool{}
			queryOnly := map[ast.Pos]bool{}
			for _, f := range rep.Findings {
				switch f.ID {
				case "unsat-body", "dead-rule", "subsumed-rule":
					deletable[f.Pos()] = true
				case "unreachable-rule":
					queryOnly[f.Pos()] = true
				}
			}
			if !deletable[posOfRule(t, p, "deadp")] {
				t.Errorf("injected unsatisfiable deadp rule not flagged; findings: %v", rep.Findings)
			}
			if !deletable[posOfRule(t, p, "deadq")] && !queryOnly[posOfRule(t, p, "deadq")] {
				t.Errorf("injected dead deadq rule not flagged; findings: %v", rep.Findings)
			}

			db := eval.NewDB()
			db.AddFacts(facts)
			origIDB, _, err := eval.EvalCtx(context.Background(), p, db, eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Sanity: a rule the linter calls deletable must not have
			// derived anything... its head predicate may still be
			// populated by sibling rules, so the check is on the
			// pruned program's output, below.
			pruned := pruneRules(p, deletable)
			prunedIDB, _, err := eval.EvalCtx(context.Background(), pruned, db, eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if diff := dbDiff(origIDB, prunedIDB); diff != "" {
				t.Fatalf("deleting lint-flagged rules changed Eval output:\n%s", diff)
			}

			// Unreachable rules preserve only the query answers.
			if len(queryOnly) > 0 {
				q1, _, err := eval.QueryCtx(context.Background(), p, db, eval.Options{})
				if err != nil {
					t.Fatal(err)
				}
				pruned2 := pruneRules(pruned, queryOnly)
				q2, _, err := eval.QueryCtx(context.Background(), pruned2, db, eval.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !sameTuples(q1, q2) {
					t.Fatalf("deleting unreachable rules changed query answers: %v vs %v", q1, q2)
				}
			}
		})
	}
}

func posOfRule(t *testing.T, p *ast.Program, headPred string) ast.Pos {
	t.Helper()
	for _, r := range p.Rules {
		if r.Head.Pred == headPred {
			return r.At
		}
	}
	t.Fatalf("no rule for %s", headPred)
	return ast.Pos{}
}

func pruneRules(p *ast.Program, drop map[ast.Pos]bool) *ast.Program {
	out := &ast.Program{Query: p.Query}
	for _, r := range p.Rules {
		if !drop[r.At] {
			out.Rules = append(out.Rules, r)
		}
	}
	return out
}

// dbDiff compares the non-empty relations of two databases and
// describes the first discrepancy.
func dbDiff(a, b *eval.DB) string {
	keys := func(db *eval.DB) map[string][]string {
		out := map[string][]string{}
		for _, pred := range db.Preds() {
			rel := db.Lookup(pred)
			if rel == nil || rel.Len() == 0 {
				continue
			}
			var ks []string
			for _, tup := range rel.Tuples() {
				ks = append(ks, tup.Key())
			}
			sort.Strings(ks)
			out[pred] = ks
		}
		return out
	}
	ka, kb := keys(a), keys(b)
	if !reflect.DeepEqual(ka, kb) {
		return fmt.Sprintf("relations differ:\n  a: %v\n  b: %v", ka, kb)
	}
	return ""
}

func sameTuples(a, b []eval.Tuple) bool {
	ka := make([]string, len(a))
	for i, t := range a {
		ka[i] = t.Key()
	}
	kb := make([]string, len(b))
	for i, t := range b {
		kb[i] = t.Key()
	}
	sort.Strings(ka)
	sort.Strings(kb)
	return reflect.DeepEqual(ka, kb)
}
