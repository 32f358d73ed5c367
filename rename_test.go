package sqo

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/cqc"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/residue"
)

// alphaRename respells the variables the table below uses in the
// shape renaming apart once produced (X_1, Y_1, Z_3) with names of the
// same length, so source positions stay put.
var alphaRename = strings.NewReplacer("X_1", "Xq1", "Y_1", "Yq1", "Z_1", "Zq1", "Z_3", "Zq3")

// canonRule prints r with its variables renamed V0, V1, ... in order of
// first occurrence, so alphabetic variants print alike.
func canonRule(r ast.Rule) string {
	seen := map[string]string{}
	return ast.RenameRule(r, func(v string) string {
		if n, ok := seen[v]; ok {
			return n
		}
		seen[v] = fmt.Sprintf("V%d", len(seen))
		return seen[v]
	}).String()
}

func canonRules(rs []ast.Rule) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(canonRule(r))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRenameApartFromSuffixedNames runs every pass that renames rules
// apart on programs whose own variables already carry the "_n" shape a
// renaming produces. Each call must return — a renamer that reuses a
// taken name makes a matcher bind a variable to itself, and resolving
// that binding never ends — and its output must equal, modulo variable
// names, the output for the same program with those variables
// respelled.
func TestRenameApartFromSuffixedNames(t *testing.T) {
	rule := func(src string) ast.Rule { return parser.MustParseProgram(src).Rules[0] }
	cases := []struct {
		name string
		src  string // variables respelled by alphaRename for the twin
		run  func(ctx context.Context, src string) (string, error)
	}{
		{"OptimizeCtx", "p(X_1, Y_1) :- e(X_1, Y_1), q(Y_1).\n?- p.\n:- e(X, Y), Y < X.\n", func(ctx context.Context, src string) (string, error) {
			u, err := Parse(src)
			if err != nil {
				return "", err
			}
			res, err := OptimizeCtx(ctx, u.Program, u.ICs, DefaultOptions())
			if err != nil {
				return "", err
			}
			return canonRules(res.Program.Rules), nil
		}},
		{"Lint", "h(A) :- e(A, X_1), f(X_1), k(A).\nh(A) :- e(A, X), f(X).\n?- h.\n", func(ctx context.Context, src string) (string, error) {
			u, err := Parse(src)
			if err != nil {
				return "", err
			}
			b, err := json.Marshal(Lint(ctx, u.Program, u.ICs, u.Facts, LintOptions{}))
			return string(b), err
		}},
		{"Contained", "p(X_1) :- e(X_1, Y_1).\np(X) :- e(X, Y).\n", func(_ context.Context, src string) (string, error) {
			rs := parser.MustParseProgram(src).Rules
			ok, err := cqc.Contained(rs[0], rs[1])
			return fmt.Sprint(ok), err
		}},
		{"ContainedOrder", "p(X_1) :- e(X_1, Y_1), X_1 < Y_1.\np(X) :- e(X, Y), X < Y.\n", func(_ context.Context, src string) (string, error) {
			rs := parser.MustParseProgram(src).Rules
			ok, err := cqc.ContainedOrder(rs[0], rs[1])
			return fmt.Sprint(ok), err
		}},
		{"residue.Compute", "p(X_1, Y_1) :- e(X_1, Y_1), e(Y_1, Z_3).\n", func(_ context.Context, src string) (string, error) {
			r := rule(src)
			ic := parser.MustParseICs(":- e(X, Y), e(Y, Z), Y < X.")[0]
			var out []ast.Rule
			for _, res := range residue.Compute(r, ic) {
				// Print each residue beside the rule head, so the rule's
				// variables keep their canonical names.
				out = append(out, ast.Rule{Head: r.Head, Pos: res.Pos, Neg: res.Neg, Cmp: res.Cmp})
			}
			return canonRules(out), nil
		}},
		{"bounded.Rewrite", "p(X, Y) :- e(X, Y).\np(X_1, Y) :- f(X_1), p(X_1, Y).\n?- p.\n", func(_ context.Context, src string) (string, error) {
			res, err := bounded.Rewrite(parser.MustParseProgram(src), bounded.Options{})
			if err != nil {
				return "", err
			}
			return fmt.Sprint(res.Eliminated) + "\n" + canonRules(res.Program.Rules), nil
		}},
		{"magic.Unfold", "a(X, Y) :- b(X, Z), c(Z, Y).\nb(X, Y) :- e(X, Z_1), f(Z_1, Y), g(Z).\nc(X, Y) :- g(X, Y).\nq(X, Y) :- a(X, Y), h(Z_1).\n?- q.\n", func(_ context.Context, src string) (string, error) {
			out, n := magic.Unfold(parser.MustParseProgram(src))
			return fmt.Sprint(n) + "\n" + canonRules(out.Rules), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(src string) (string, error) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				type result struct {
					out string
					err error
				}
				done := make(chan result, 1)
				go func() {
					out, err := tc.run(ctx, src)
					done <- result{out, err}
				}()
				select {
				case r := <-done:
					return r.out, r.err
				case <-time.After(3 * time.Second):
					t.Fatalf("%s did not return on\n%s", tc.name, src)
					return "", nil
				}
			}
			got, err := run(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			twin := alphaRename.Replace(tc.src)
			want, err := run(twin)
			if err != nil {
				t.Fatal(err)
			}
			// Respelling the output too matters only where names reach
			// it as written: lint messages.
			if got = alphaRename.Replace(got); got != want {
				t.Errorf("output differs from the respelled twin's:\n%s\n--- twin:\n%s", got, want)
			}
		})
	}
}
