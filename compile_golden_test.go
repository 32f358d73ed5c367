package sqo

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/magic"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

// compileInput is one source of the compile corpus: a program with its
// ic's, parsed from the text a cold request would carry.
type compileInput struct {
	name string
	src  string
}

// compileCorpus is Figure 1, the goodpath sources of E1 and E2 and of
// the quickstart, funcdep (all-free and point goals), trendy,
// examples/lint/*.dl and workload.RandomProgram seeds 1-20.
func compileCorpus(tb testing.TB) []compileInput {
	tb.Helper()
	out := []compileInput{
		{"figure1", figure1Src + ":- a(X, Y), b(Y, Z).\n"},
		{"e1-goodpath", "goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).\n?- goodPath.\n" +
			":- startPoint(X), endPoint(Y), Y <= X.\n"},
		{"e2-threshold", goodPathSrc + ":- startPoint(X), step(X, Y), X < 100.\n:- step(X, Y), X >= Y.\n"},
		{"quickstart", goodPathSrc + ":- startPoint(X), endPoint(Y), Y <= X.\n"},
		{"funcdep", "conflict(E) :- manages(E, M1), manages(E, M2), M1 < M2.\n" +
			"boss(E, M) :- manages(E, M).\nboss(E, M) :- manages(E, X), boss(X, M).\n" +
			"top(E, M) :- boss(E, M), ceo(M).\n?- top.\n:- manages(E, M1), manages(E, M2), M1 != M2.\n"},
		{"funcdep-point", "conflict(E) :- manages(E, M1), manages(E, M2), M1 < M2.\n" +
			"boss(E, M) :- manages(E, M).\nboss(E, M) :- manages(E, X), boss(X, M).\n" +
			"top(E, M) :- boss(E, M), ceo(M).\n?- top(1, M).\n:- manages(E, M1), manages(E, M2), M1 != M2.\n"},
		{"trendy", "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).\n?- buys(0, Y).\n"},
	}
	files, err := filepath.Glob("examples/lint/*.dl")
	if err != nil || len(files) == 0 {
		tb.Fatalf("examples/lint: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, compileInput{f, string(src)})
	}
	for seed := int64(1); seed <= 20; seed++ {
		src, ics, _ := workload.RandomProgram(seed)
		out = append(out, compileInput{fmt.Sprintf("random-%02d", seed), src + ics})
	}
	return out
}

// compileText renders everything the compiler emits for one input: the
// optimizer's program, query forest and adornments (their triplet keys
// are what orders triplets and numbers adornments), the recursion-elimination
// rewrite of the original program and of the optimizer's, the
// magic-sets rewrite of the optimizer's program (at the input's goal,
// or at the query bound to 1 in its first position), and the lint
// findings.
func compileText(tb testing.TB, in compileInput) string {
	tb.Helper()
	ctx := context.Background()
	u, err := Parse(in.src)
	if err != nil {
		tb.Fatalf("%s: %v", in.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", in.name)
	res, err := OptimizeCtx(ctx, u.Program, u.ICs, DefaultOptions())
	if err != nil {
		tb.Fatalf("%s: %v", in.name, err)
	}
	b.WriteString("--- optimize\n")
	b.WriteString(FormatProgram(res.Program))
	b.WriteString(Explain(res))
	if res.Tree != nil {
		b.WriteString("--- adornments\n")
		ad := res.Tree.Res.Adorn
		preds := make([]string, 0, len(ad))
		for p := range ad {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		for _, p := range preds {
			for id, a := range ad[p] {
				fmt.Fprintf(&b, "%s^a%d %s\n", p, id, a)
			}
		}
	}
	for _, side := range []struct {
		label string
		prog  *Program
	}{{"bounded(original)", u.Program}, {"bounded(optimized)", res.Program}} {
		fmt.Fprintf(&b, "--- %s\n", side.label)
		br, err := bounded.Rewrite(side.prog, bounded.Options{})
		switch {
		case err == nil:
			b.WriteString(FormatProgram(br.Program))
		case errors.Is(err, bounded.ErrNotBounded):
			fmt.Fprintf(&b, "%v\n", err)
		default:
			tb.Fatalf("%s: %s: %v", in.name, side.label, err)
		}
		for _, a := range br.Analyses {
			fmt.Fprintf(&b, "%s: %v depth=%d %s\n", a.Pred, a.Verdict, a.Depth, a.Reason)
		}
	}
	b.WriteString("--- magic\n")
	prog := res.Program
	if len(prog.Goal) == 0 {
		if ar, err := prog.PredArity(); err == nil && ar[prog.Query] > 0 {
			goal := []Term{ast.N(1)}
			for i := 1; i < ar[prog.Query]; i++ {
				goal = append(goal, ast.V(fmt.Sprintf("G%d", i)))
			}
			prog = withGoal(prog, goal)
		}
	}
	if m, err := magic.Rewrite(prog); err == nil {
		b.WriteString(FormatProgram(m.Program))
	} else if errors.Is(err, magic.ErrNotApplicable) {
		fmt.Fprintf(&b, "%v\n", err)
	} else {
		tb.Fatalf("%s: magic: %v", in.name, err)
	}
	b.WriteString("--- lint\n")
	if err := WriteLintText(&b, Lint(ctx, u.Program, u.ICs, u.Facts, LintOptions{}), LintFile{Name: in.name}); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// TestCompileGolden pins, byte for byte, what the compiler emits for
// every input of compileCorpus: a change to how the optimizer keys,
// orders or searches may make it faster, never make it say something
// else. Rewrite the golden with `go test . -run TestCompileGolden
// -update` only for a change that means to alter the output, and read
// its diff.
func TestCompileGolden(t *testing.T) {
	var b strings.Builder
	for _, in := range compileCorpus(t) {
		b.WriteString(compileText(t, in))
	}
	got := []byte(b.String())
	path := filepath.Join("testdata", "compile.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("compile output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("compile output differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
