package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	sqo "repro"
)

// Exit-code parity: for the same input, the -json renderer must exit
// exactly like the text renderer — 1 when there are Error-severity
// findings, 0 when there are only warnings and infos. A regression
// here silently breaks CI pipelines that lint with -json.
func TestExitCodeParityTextVsJSON(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{
			// deadcode.dl's shape: the constraint makes p's body
			// unsatisfiable, an Error.
			name: "errors",
			src: `p(X) :- a(X, Y), b(Y, X).
q(X) :- p(X).
?- q.
:- a(X, Y), b(Y, Z).`,
			want: 1,
		},
		{
			// The singleton Z of the recursive rule: an L5 Warning, no
			// Errors. (buys is bounded, which the engine compiles away,
			// so L7 reports nothing.)
			name: "warnings only",
			src: `buys(X, Y) :- likes(X, Y).
buys(X, Y) :- trendy(X), buys(Z, Y).
?- buys.`,
			want: 0,
		},
		{
			// Unbounded recursion: an L7 Info, nothing else.
			name: "infos only",
			src: `tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
?- tc.`,
			want: 0,
		},
	}
	for _, tc := range cases {
		var textOut, jsonOut, stderr bytes.Buffer
		textCode := run(nil, strings.NewReader(tc.src), &textOut, &stderr)
		jsonCode := run([]string{"-json"}, strings.NewReader(tc.src), &jsonOut, &stderr)
		if textCode != tc.want {
			t.Errorf("%s: text exit = %d, want %d\n%s", tc.name, textCode, tc.want, textOut.String())
		}
		if jsonCode != textCode {
			t.Errorf("%s: json exit = %d, text exit = %d; renderers must agree", tc.name, jsonCode, textCode)
		}
		var reports []fileReport
		if err := json.Unmarshal(jsonOut.Bytes(), &reports); err != nil {
			t.Errorf("%s: -json output is not valid JSON: %v", tc.name, err)
		}
	}
}

// Parse failures exit 2 under both renderers.
func TestExitCodeParseFailure(t *testing.T) {
	const src = `p(X :- broken`
	for _, args := range [][]string{nil, {"-json"}} {
		var out, stderr bytes.Buffer
		if code := run(args, strings.NewReader(src), &out, &stderr); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}

// Every lint surface reports the same findings for the same input:
// sqolint -json, sqo.Lint with the zero options (sqoc -lint, sqod's
// /v1/lint and its optimize and view diagnostics), and sqo.Lint with
// the deprecated MagicEnabled and ElimEnabled set, as the benchmark
// harness still passes them.
func TestLintSurfacesAgree(t *testing.T) {
	paths, err := filepath.Glob("../../examples/lint/*.dl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs under examples/lint/ (%v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := sqo.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		lintWith := func(opts sqo.LintOptions) []sqo.LintFinding {
			return sqo.Lint(context.Background(), unit.Program, unit.ICs, unit.Facts, opts).Findings
		}
		want := lintWith(sqo.LintOptions{})
		if got := lintWith(sqo.LintOptions{MagicEnabled: true, ElimEnabled: true}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LintOptions{MagicEnabled, ElimEnabled} reports\n%v\nwant\n%v", path, got, want)
		}
		var out, stderr bytes.Buffer
		run([]string{"-json", path}, strings.NewReader(""), &out, &stderr)
		var reports []fileReport
		if err := json.Unmarshal(out.Bytes(), &reports); err != nil || len(reports) != 1 {
			t.Fatalf("%s: sqolint -json: %v (%d reports)\n%s", path, err, len(reports), stderr.String())
		}
		if got := reports[0].Findings; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sqolint reports\n%v\nwant\n%v", path, got, want)
		}
	}
}
