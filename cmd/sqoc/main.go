// sqoc — the semantic query optimizer compiler.
//
// Reads a datalog source (rules, integrity constraints, an optional
// '?- pred.' query declaration, and optionally ground facts) from a
// file or standard input, rewrites the program to completely
// incorporate the constraints, and prints the rewritten program. With
// facts present (or a separate facts file) it also evaluates both
// versions and reports the answers and the work saved. With -lint it
// first runs the semantic linter over the input and the facts file —
// the findings sqod's POST /v1/lint returns as JSON — and prints them to
// standard error, each under the file it points into; any parseable
// input is linted, and an Error-severity finding stops the run with
// status 1.
//
// Usage:
//
//	sqoc [-facts file] [-explain] [-baseline] [-stats] [-why] [-lint]
//	     [-timeout d] [-budget n] [file]
//
// Exit status:
//
//	0  success
//	1  usage, parse, or optimization errors
//	3  the -budget derived-tuple budget was exhausted
//	4  the -timeout deadline expired (or the run was interrupted)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	sqo "repro"
)

// Distinct exit codes so scripts can tell resource exhaustion from
// ordinary failure.
const (
	exitBudget  = 3
	exitTimeout = 4
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sqoc: ")
	factsPath := flag.String("facts", "", "file of ground facts to evaluate both programs on")
	explain := flag.Bool("explain", false, "print the query forest (Figure 1 style)")
	baseline := flag.Bool("baseline", false, "also print the [CGM88] per-rule baseline rewriting")
	stats := flag.Bool("stats", false, "print query-tree statistics")
	why := flag.Bool("why", false, "print a derivation tree for each answer (requires facts)")
	lintFlag := flag.Bool("lint", false, "run the semantic linter before optimizing; exit 1 on lint errors")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on optimization + evaluation (0 = none)")
	budget := flag.Int64("budget", 0, "derived-tuple budget per evaluation (0 = unlimited)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	src, err := readInput(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	unit, err := sqo.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	facts := unit.Facts
	var extra []sqo.Atom
	if *factsPath != "" {
		fsrc, err := os.ReadFile(*factsPath)
		if err != nil {
			log.Fatal(err)
		}
		if extra, err = sqo.ParseFacts(string(fsrc)); err != nil {
			log.Fatal(err)
		}
		facts = append(facts, extra...)
	}

	if *lintFlag {
		// The linter reads the facts file as if it followed the input,
		// its lines numbered on from the input's last, so that each
		// finding prints under the file it points into.
		files := []sqo.LintFile{{Name: flag.Arg(0), Lines: strings.Count(src, "\n") + 1}, {Name: *factsPath}}
		lintFacts := append([]sqo.Atom(nil), unit.Facts...)
		for _, a := range extra {
			a.At.Line += files[0].Lines
			lintFacts = append(lintFacts, a)
		}
		rep := sqo.Lint(ctx, unit.Program, unit.ICs, lintFacts, sqo.LintOptions{})
		if len(rep.Findings) > 0 {
			if err := sqo.WriteLintText(os.Stderr, rep, files...); err != nil {
				log.Fatal(err)
			}
		}
		if rep.HasErrors() {
			log.Fatal("lint found errors; not optimizing")
		}
	}
	if unit.Program.Query == "" {
		log.Fatal("no query declaration ('?- pred.') in input")
	}

	res, err := sqo.OptimizeCtx(ctx, unit.Program, unit.ICs, sqo.DefaultOptions())
	if err != nil {
		fatal(err, *timeout, *budget)
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "warning: %s\n", w)
	}
	if !res.Satisfiable {
		fmt.Println("% the query predicate is UNSATISFIABLE with respect to the constraints")
	}
	fmt.Print(sqo.FormatProgram(res.Program))

	if *baseline {
		fmt.Println("\n% --- [CGM88] per-rule baseline ---")
		fmt.Print(sqo.FormatProgram(sqo.BaselineOptimize(unit.Program, unit.ICs)))
	}
	if *explain {
		fmt.Println("\n% --- query forest ---")
		fmt.Print(sqo.Explain(res))
	}
	if *stats {
		s := res.Tree.Stats()
		fmt.Printf("\n%% goal nodes=%d rule nodes=%d roots=%d adornments=%d\n",
			s.GoalNodes, s.RuleNodes, s.Roots, s.Adornments)
	}

	if len(facts) > 0 {
		db := sqo.NewDBFrom(facts)
		opts := sqo.DefaultEvalOptions()
		opts.MaxTuples = *budget
		origTuples, origStats, err := sqo.QueryCtx(ctx, unit.Program, db, opts)
		if err != nil {
			fatal(err, *timeout, *budget)
		}
		optTuples, optStats, err := sqo.QueryCtx(ctx, res.Program, db, opts)
		if err != nil {
			fatal(err, *timeout, *budget)
		}
		goalNote := ""
		if optStats.ElimApplied {
			goalNote += " (bounded recursion eliminated)"
		}
		if optStats.MagicApplied {
			goalNote += " (magic-sets, goal-directed)"
		}
		fmt.Printf("\n%% original : %d answers, %d tuples derived, %d join probes\n",
			len(origTuples), origStats.TuplesDerived, origStats.JoinProbes)
		fmt.Printf("%% optimized: %d answers, %d tuples derived, %d join probes%s\n",
			len(optTuples), optStats.TuplesDerived, optStats.JoinProbes, goalNote)
		for _, t := range optTuples {
			fmt.Printf("%s%s.\n", unit.Program.Query, t)
		}
		if *why {
			_, explain, _, err := sqo.EvalProv(unit.Program, db)
			if err != nil {
				log.Fatal(err)
			}
			for _, t := range origTuples {
				fact := sqo.Atom{Pred: unit.Program.Query, Args: t}
				d, err := explain(fact)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("\n%% derivation of %s:\n%s", fact, d)
			}
		}
	}
}

// fatal prints a clear diagnosis and exits with the status matching
// the failure class: budget exhaustion and deadline expiry each get a
// distinct code so callers can react without parsing messages.
func fatal(err error, timeout time.Duration, budget int64) {
	switch {
	case errors.Is(err, sqo.ErrBudget):
		log.Printf("derived-tuple budget of %d exhausted before the fixpoint completed: %v", budget, err)
		log.Printf("raise -budget or tighten the program/constraints")
		os.Exit(exitBudget)
	case errors.Is(err, context.DeadlineExceeded):
		log.Printf("timed out after %v: %v", timeout, err)
		log.Printf("raise -timeout, or reduce the workload")
		os.Exit(exitTimeout)
	case errors.Is(err, context.Canceled):
		log.Printf("canceled: %v", err)
		os.Exit(exitTimeout)
	default:
		log.Fatal(err)
	}
}

func readInput(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
