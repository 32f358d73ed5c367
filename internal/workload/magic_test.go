package workload_test

// Differential property for goal-directed evaluation over the program
// generator: binding a goal argument and evaluating through the
// magic-sets rewrite must answer exactly like bottom-up evaluation of
// the same goal — and both like the reference evaluator — across worker
// counts and the streaming unfolding. Goals are drawn from actual answers (a hit) and from a
// constant outside the generated domain (a miss), so both the
// demand-reaches-something and demand-reaches-nothing paths run.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	sqo "repro"
	"repro/internal/ast"
	"repro/internal/workload"
)

func TestRandomProgramMagicDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		progSrc, _, facts := workload.RandomProgram(seed)
		prog, err := sqo.ParseProgram(progSrc)
		if err != nil {
			t.Fatalf("seed %d: generated program does not parse: %v", seed, err)
		}
		db := sqo.NewDBFrom(facts)

		off := sqo.DefaultEvalOptions()
		off.Magic = sqo.MagicOff
		all, _, err := sqo.QueryCtx(context.Background(), prog, db, off)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ar, err := prog.PredArity()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := ar[prog.Query]
		if n == 0 {
			continue
		}

		var goals [][]sqo.Term
		if len(all) > 0 {
			hit := []sqo.Term{all[0][0]}
			for i := 1; i < n; i++ {
				hit = append(hit, ast.V(fmt.Sprintf("G%d", i)))
			}
			goals = append(goals, hit)
		}
		miss := []sqo.Term{ast.N(-999)}
		for i := 1; i < n; i++ {
			miss = append(miss, ast.V(fmt.Sprintf("G%d", i)))
		}
		goals = append(goals, miss)

		for gi, goal := range goals {
			gp := prog.Clone()
			gp.Goal = goal
			want := refAnswers(gp, facts)
			if got := answers(t, gp, db, off); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d goal %d: bottom-up answers differ from the reference\n got %v\nwant %v\ngoal %s\nprogram:\n%s",
					seed, gi, got, want, gp.GoalAtom(), progSrc)
			}
			for _, stream := range []bool{false, true} {
				opts := sqo.DefaultEvalOptions()
				opts.Stream = stream
				got := answers(t, gp, db, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d goal %d (stream=%v): magic answers diverge\n got %v\nwant %v\ngoal %s\nprogram:\n%s",
						seed, gi, stream, got, want, gp.GoalAtom(), progSrc)
				}
			}
		}
	}
}
