package qtree

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/parser"
)

// FuzzOptimize asserts the optimizer's contracts on arbitrary small
// inputs — a program text and a constraint text, at most 8 rules, 4
// constraints and 4 body atoms each, so the forest's exponential growth
// (the Theorem 5.1 family needs 2k+1 rules for 7^k goal nodes) stays
// small: two runs give byte-identical programs and forests, every
// adornment is registered with a rule reading only earlier ones, the
// pairs extraction names are the forest's, and Satisfiable agrees with
// the extracted program. A run that misses its deadline is skipped.
func FuzzOptimize(f *testing.F) {
	for _, c := range corpusSources[:3] { // Figure 1 (E3's program), E1 and E2
		f.Add(c.src, "")
	}
	for _, e := range lintExamples(f) {
		f.Add(e[1], "")
	}
	f.Fuzz(func(t *testing.T, progSrc, icsSrc string) {
		u, err := parser.Parse(progSrc)
		if err != nil {
			return
		}
		ics, err := parser.ParseICs(icsSrc)
		if err != nil {
			return
		}
		ics = append(u.ICs, ics...)
		if len(u.Program.Rules) > 8 || len(ics) > 4 {
			return
		}
		for _, r := range u.Program.Rules {
			if len(r.Pos)+len(r.Neg) > 4 {
				return
			}
		}
		for _, ic := range ics {
			if len(ic.Pos)+len(ic.Neg) > 4 {
				return
			}
		}
		run := func() (*Outcome, string) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			out, err := OptimizeCtx(ctx, u.Program, ics, DefaultOptions())
			if errors.Is(err, context.DeadlineExceeded) {
				t.Skip("optimization missed its deadline")
			}
			if err != nil {
				return nil, ""
			}
			return out, out.Program.String() + "?- " + out.Program.GoalAtom().String() + ".\n" + out.Tree.Print()
		}
		out, text := run()
		if out == nil {
			return
		}
		if _, again := run(); again != text {
			t.Fatalf("two runs differ:\n%s\nvs\n%s", text, again)
		}
		checkInvariants(t, "input", out)
	})
}
