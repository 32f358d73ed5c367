package server

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	sqo "repro"
)

// deadRuleProgram has a rule whose body instantiates the constraint
// (unsat-body), making p provably empty and q's rule dead.
const deadRuleProgram = `
	p(X) :- a(X, Y), b(Y, X).
	q(X) :- p(X).
	r(X) :- c(X, X).
	r(X) :- p(X), c(X, X).
	?- r.
`

const deadRuleICs = `:- a(X, Y), b(Y, Z).`

func findingIDs(fs []sqo.LintFinding) map[string]int {
	out := map[string]int{}
	for _, f := range fs {
		out[f.ID]++
	}
	return out
}

func TestServerLintEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var resp struct {
		Findings []sqo.LintFinding `json:"findings"`
		Errors   int               `json:"errors"`
		Warnings int               `json:"warnings"`
		Infos    int               `json:"infos"`
		LintMS   float64           `json:"lint_ms"`
	}
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/lint",
		map[string]any{"program": deadRuleProgram, "ics": deadRuleICs}, &resp)
	if code != http.StatusOK {
		t.Fatalf("lint: status %d, body %s", code, raw)
	}
	ids := findingIDs(resp.Findings)
	if ids["unsat-body"] != 1 {
		t.Errorf("want one unsat-body finding, got %v", resp.Findings)
	}
	if ids["dead-rule"] != 2 {
		t.Errorf("want two dead-rule findings, got %v", resp.Findings)
	}
	if resp.Errors != 1 {
		t.Errorf("want 1 error, got %d (body %s)", resp.Errors, raw)
	}
	// Findings carry positions pointing into the submitted source.
	for _, f := range resp.Findings {
		if f.Line == 0 {
			t.Errorf("finding %s/%s has no position", f.Check, f.ID)
		}
	}
}

func TestServerLintEndpointCleanAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var resp struct {
		Findings []sqo.LintFinding `json:"findings"`
		Errors   int               `json:"errors"`
	}
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/lint",
		map[string]any{"program": serverTestProgram}, &resp)
	if code != http.StatusOK {
		t.Fatalf("lint: status %d, body %s", code, raw)
	}
	if resp.Errors != 0 {
		t.Errorf("clean program: want 0 errors, got %d (body %s)", resp.Errors, raw)
	}

	var errResp struct {
		Code string `json:"code"`
	}
	code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/lint",
		map[string]any{"program": "p(X :-"}, &errResp)
	if code != http.StatusBadRequest || errResp.Code != "parse_error" {
		t.Errorf("malformed program: status %d code %q, want 400 parse_error", code, errResp.Code)
	}
}

func TestServerOptimizeCarriesDiagnostics(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	var resp struct {
		Diagnostics []sqo.LintFinding `json:"diagnostics"`
	}
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/optimize",
		map[string]any{"program": deadRuleProgram, "ics": deadRuleICs}, &resp)
	if code != http.StatusOK {
		t.Fatalf("optimize: status %d, body %s", code, raw)
	}
	if findingIDs(resp.Diagnostics)["unsat-body"] != 1 {
		t.Errorf("optimize response missing unsat-body diagnostic: %s", raw)
	}
	if s.metrics.LintFindings.Load() == 0 {
		t.Error("lint findings metric not incremented")
	}
	if s.metrics.LintRuns.Load() == 0 {
		t.Error("lint runs metric not incremented")
	}
}

func TestServerViewCreateCarriesDiagnostics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDataset(t, ts.URL, "d", `c(1, 1). a(1, 2). b(2, 1).`)

	var resp struct {
		Diagnostics []sqo.LintFinding `json:"diagnostics"`
		AnswerCount int               `json:"answer_count"`
	}
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/views/v",
		map[string]any{"program": deadRuleProgram, "ics": deadRuleICs}, &resp)
	if code != http.StatusOK {
		t.Fatalf("view create: status %d, body %s", code, raw)
	}
	if findingIDs(resp.Diagnostics)["dead-rule"] != 2 {
		t.Errorf("view response missing dead-rule diagnostics: %s", raw)
	}

	// GET on the same view is a read, not a registration: no
	// diagnostics attached.
	code, raw = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/d/views/v", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("view get: status %d, body %s", code, raw)
	}
	if strings.Contains(string(raw), "diagnostics") {
		t.Errorf("view GET must not carry diagnostics: %s", raw)
	}

	// Unoptimized, the view still lints against its ICs; ICs that do
	// not parse drop the diagnostics, not the view.
	resp.Diagnostics = nil
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/views/raw",
		map[string]any{"program": deadRuleProgram, "ics": deadRuleICs, "optimize": false}, &resp)
	if code != http.StatusOK || findingIDs(resp.Diagnostics)["dead-rule"] != 2 {
		t.Errorf("unoptimized view create: status %d, body %s", code, raw)
	}
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/views/badics",
		map[string]any{"program": deadRuleProgram, "ics": ":- a(X", "optimize": false}, nil)
	if code != http.StatusOK || strings.Contains(string(raw), "diagnostics") {
		t.Errorf("unoptimized view create with unparsable ICs: status %d, body %s", code, raw)
	}
}

func TestServerMetricsExposeLintCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, http.MethodPost, ts.URL+"/v1/lint",
		map[string]any{"program": deadRuleProgram, "ics": deadRuleICs}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "sqod_lint_runs_total 1") {
		t.Errorf("metrics missing sqod_lint_runs_total 1")
	}
	if !strings.Contains(body, "sqod_lint_findings_total 5") {
		t.Errorf("metrics missing sqod_lint_findings_total 5")
	}
}

// TestLintSurfacesAgree: every lint surface reports the same findings on
// every examples/lint program — sqo.Lint with the zero options (what
// sqoc -lint prints, and what sqod runs for its optimize and view
// diagnostics), sqo.Lint with the deprecated MagicEnabled and
// ElimEnabled set, as the benchmark harness still passes them, and the
// findings of POST /v1/lint.
func TestLintSurfacesAgree(t *testing.T) {
	paths, err := filepath.Glob("../../examples/lint/*.dl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs under examples/lint/ (%v)", err)
	}
	_, ts := newTestServer(t, Config{})
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
		program, ics, facts := splitSource(t, string(src), unit)
		var resp struct {
			Findings []sqo.LintFinding `json:"findings"`
		}
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/lint",
			map[string]any{"program": program, "ics": ics, "facts": facts}, &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: /v1/lint: status %d, body %s", path, code, raw)
		}
		if !reflect.DeepEqual(resp.Findings, want) {
			t.Errorf("%s: /v1/lint reports\n%v\nwant\n%v", path, resp.Findings, want)
		}
	}
}

// splitSource returns src three times, for /v1/lint's program, ics and
// facts fields: each keeps the lines on which the unit's rules and query
// (program), constraints (ics) or facts (facts) start and blanks the
// rest, so a finding's line and column are those of the file.
func splitSource(t *testing.T, src string, unit *sqo.Unit) (program, ics, facts string) {
	t.Helper()
	part := map[int]int{} // line -> 1 for a constraint, 2 for a fact
	for _, ic := range unit.ICs {
		part[ic.At.Line] = 1
	}
	for _, f := range unit.Facts {
		part[f.At.Line] = 2
	}
	for _, r := range unit.Program.Rules {
		if part[r.At.Line] != 0 {
			t.Fatalf("line %d holds a rule and a constraint or fact", r.At.Line)
		}
	}
	var parts [3]strings.Builder
	for i, line := range strings.SplitAfter(src, "\n") {
		for p := range parts {
			if part[i+1] == p {
				parts[p].WriteString(line)
			} else if strings.HasSuffix(line, "\n") {
				parts[p].WriteByte('\n')
			}
		}
	}
	return parts[0].String(), parts[1].String(), parts[2].String()
}
