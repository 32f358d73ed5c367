// sqolint — semantic static analysis for datalog programs.
//
// Reads one or more datalog sources (rules, integrity constraints,
// ground facts, an optional '?- pred.' query declaration) and reports
// structured diagnostics: rules whose bodies the constraints make
// unsatisfiable, provably empty IDB predicates and the dead rules that
// read them, rules subsumed by a sibling, constraint features that
// fall outside the decidable fragments of the theory, plain hygiene
// problems, point queries the magic-sets rewrite does not apply to, and
// recursion that is not provably bounded. It reports what sqoc -lint
// and sqod's /v1/lint report for the same input. With no file
// arguments it reads standard input.
//
// Usage:
//
//	sqolint [-json] [-facts file] [-timeout d]
//	        [-chase-steps n] [-max-linearizations n] [file ...]
//
// Exit status (identical for the text and -json renderers):
//
//	0  no Error-severity findings
//	1  at least one Error-severity finding
//	2  usage or parse failure
package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log"
	"os"

	sqo "repro"
)

const (
	exitFindings = 1
	exitUsage    = 2
)

// fileReport pairs a lint report with the input it came from, for the
// JSON rendering of multi-file runs.
type fileReport struct {
	Name string `json:"name"`
	*sqo.LintReport
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flag parsing,
// linting, rendering, and the exit status. The status contract is
// renderer-independent — the JSON path and the text path must agree —
// and cmd/sqolint's tests pin that parity.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "sqolint: ", 0)
	fs := flag.NewFlagSet("sqolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit findings as JSON instead of text")
	factsPath := fs.String("facts", "", "file of extra ground facts checked alongside every input")
	timeout := fs.Duration("timeout", 0, "wall-clock bound on the semantic checks (0 = none)")
	chaseSteps := fs.Int("chase-steps", 0, "chase step budget for constraints with negation (0 = default)")
	maxLin := fs.Int("max-linearizations", 0, "linearization budget for order-atom satisfiability (0 = default)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := sqo.LintOptions{}
	opts.Emptiness.ChaseSteps = *chaseSteps
	opts.Emptiness.MaxLinearizations = *maxLin

	var extraFacts []sqo.Atom
	if *factsPath != "" {
		b, err := os.ReadFile(*factsPath)
		if err != nil {
			logger.Print(err)
			return exitUsage
		}
		extraFacts, err = sqo.ParseFacts(string(b))
		if err != nil {
			logger.Print(err)
			return exitUsage
		}
	}

	inputs := fs.Args()
	if len(inputs) == 0 {
		inputs = []string{"-"}
	}
	var reports []fileReport
	for _, path := range inputs {
		name, src, err := readInput(path, stdin)
		if err != nil {
			logger.Print(err)
			return exitUsage
		}
		rep, err := lintSource(ctx, src, extraFacts, opts)
		if err != nil {
			logger.Printf("%s: %v", name, err)
			return exitUsage
		}
		reports = append(reports, fileReport{Name: name, LintReport: rep})
	}

	sawErrors := false
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			logger.Print(err)
			return exitUsage
		}
		for _, fr := range reports {
			if fr.HasErrors() {
				sawErrors = true
			}
		}
	} else {
		for _, fr := range reports {
			name := fr.Name
			if len(reports) == 1 && name == "<stdin>" {
				name = ""
			}
			if err := sqo.WriteLintText(stdout, name, fr.LintReport); err != nil {
				logger.Print(err)
				return exitUsage
			}
			if fr.HasErrors() {
				sawErrors = true
			}
		}
	}
	if sawErrors {
		return exitFindings
	}
	return 0
}

// lintSource parses one source text and lints it with the extra facts
// appended.
func lintSource(ctx context.Context, src string, extraFacts []sqo.Atom, opts sqo.LintOptions) (*sqo.LintReport, error) {
	unit, err := sqo.Parse(src)
	if err != nil {
		return nil, err
	}
	facts := append(append([]sqo.Atom{}, unit.Facts...), extraFacts...)
	return sqo.Lint(ctx, unit.Program, unit.ICs, facts, opts), nil
}

func readInput(path string, stdin io.Reader) (name, src string, err error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(stdin)
		return "<stdin>", string(b), err
	}
	b, err := os.ReadFile(path)
	return path, string(b), err
}
