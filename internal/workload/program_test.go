package workload_test

// Differential property over the program generator: every generated
// program must parse, survive the full optimizer pipeline (which
// exercises adornment against the generated constraints), and
// evaluate to the reference evaluator's answers (internal/refeval) at 1
// and 4 workers. Since the generated facts satisfy the generated
// constraints by construction, the optimized program must also agree
// with the original on them.

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	sqo "repro"
	"repro/internal/refeval"
	"repro/internal/workload"
)

func answers(t *testing.T, p *sqo.Program, db *sqo.DB, opts sqo.EvalOptions) []string {
	t.Helper()
	tuples, _, err := sqo.QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatalf("evaluating %q: %v", p.Query, err)
	}
	out := make([]string, len(tuples))
	for i, tp := range tuples {
		out[i] = tp.String()
	}
	sort.Strings(out)
	return out
}

// refAnswers is the reference evaluator's answer set, rendered like
// answers: tuples without the query predicate's name.
func refAnswers(p *sqo.Program, facts []sqo.Atom) []string {
	out := refeval.Answers(p, facts)
	for i, s := range out {
		out[i] = strings.TrimPrefix(s, p.Query)
	}
	sort.Strings(out)
	return out
}

func TestRandomProgramDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		progSrc, icsSrc, facts := workload.RandomProgram(seed)

		prog, err := sqo.ParseProgram(progSrc)
		if err != nil {
			t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, progSrc)
		}
		ics, err := sqo.ParseICs(icsSrc)
		if err != nil {
			t.Fatalf("seed %d: generated ics do not parse: %v", seed, err)
		}
		db := sqo.NewDBFrom(facts)

		want := refAnswers(prog, facts)
		if got := answers(t, prog, db, sqo.DefaultEvalOptions()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: answers differ from the reference:\n got %v\nwant %v\nprogram:\n%s",
				seed, got, want, progSrc)
		}

		// The rewrite must go through (adornment included) and preserve
		// answers on a constraint-satisfying database.
		res, err := sqo.Optimize(prog, ics)
		if err != nil {
			t.Fatalf("seed %d: optimize failed: %v\nprogram:\n%s", seed, err, progSrc)
		}
		if !res.Satisfiable {
			if len(want) != 0 {
				t.Fatalf("seed %d: program declared unsatisfiable but answers %v", seed, want)
			}
			continue
		}
		got := answers(t, res.Program, db, sqo.DefaultEvalOptions())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: optimized program changes answers:\n got %v\nwant %v\noriginal:\n%s\nrewritten:\n%s",
				seed, got, want, progSrc, sqo.FormatProgram(res.Program))
		}
	}
}

func TestRandomProgramDeterministic(t *testing.T) {
	p1, i1, f1 := workload.RandomProgram(7)
	p2, i2, f2 := workload.RandomProgram(7)
	if p1 != p2 || i1 != i2 || len(f1) != len(f2) {
		t.Fatal("same seed must generate the same workload")
	}
	p3, _, _ := workload.RandomProgram(8)
	if p1 == p3 {
		t.Fatal("different seeds should generate different programs")
	}
}
