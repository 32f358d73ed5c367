package main

// P10: boundedness analysis and recursion elimination — compiling
// provably bounded fixpoints into flat joins, against evaluating the
// recursion as written.
//
// Every workload runs through the same QueryCtx entry point; modes
// differ only in EvalOptions.Elim (and, where noted, Magic). Answers
// must be identical across modes — the run aborts otherwise — and the
// measured quantities are the deterministic work counters (tuples
// derived, join probes) plus best-of-three wall clock.
//
// The workloads bracket where elimination wins and what it costs when
// it cannot:
//
//   - trendy-point: the classical bounded program (buys/likes/trendy,
//     witness depth 2) under a bound point query. The fixpoint+magic
//     row is the instructive one: magic alone is impotent here because
//     the recursive subgoal buys(Z, Y) carries no binding, so demand
//     degenerates to the full relation. After elimination the program
//     is two flat rules and the goal's binding restricts both — the
//     elim+magic row is where the >=10x drop in derived tuples and
//     probes comes from.
//   - trendy-full: the same program with an unbound goal. No binding
//     for magic to exploit; elimination still wins whatever it saves
//     by skipping fixpoint iteration, which is honest but modest.
//   - piecewise-full: a piecewise-linear bounded program whose
//     boundedness witness is the 3-fold unfolding — the analyzer has
//     to climb the ladder past depth 2 to prove it.
//   - tc-fallback-point: genuinely unbounded transitive closure. The
//     elim-auto row pays for the boundedness analysis, is refused
//     (ErrNotBounded), and falls back to the identical fixpoint — same
//     counters, wall clock reporting the honest overhead of asking.
//
// With -out the rows are written as JSON (committed as BENCH_10.json
// for regression tracking).

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	sqo "repro"
	"repro/internal/ast"
)

type p10Row struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Answers  int    `json:"answers"`
	Derived  int64  `json:"derived"`
	Probes   int64  `json:"probes"`
	Elim     bool   `json:"elim_applied"`
	WallNs   int64  `json:"wall_ns"`
}

type p10Report struct {
	CPUs   int      `json:"cpus"`
	GOOS   string   `json:"goos"`
	GOARCH string   `json:"goarch"`
	Go     string   `json:"go_version"`
	Rows   []p10Row `json:"results"`
}

// p10TrendyFacts builds the bounded workload's EDB: trendy(i) for each
// person, and likes(i, 1000+i*100+j) so every person likes their own
// distinct items.
func p10TrendyFacts(people, items int) []ast.Atom {
	var out []ast.Atom
	for i := 0; i < people; i++ {
		out = append(out, ast.NewAtom("trendy", ast.N(float64(i))))
		for j := 0; j < items; j++ {
			out = append(out, ast.NewAtom("likes", ast.N(float64(i)), ast.N(float64(1000+i*100+j))))
		}
	}
	return out
}

// p10Measure evaluates the program in one mode, best of three; the
// caller compares answers across modes.
func p10Measure(p *sqo.Program, db *sqo.DB, elim sqo.ElimMode, magic sqo.MagicMode) (p10Row, []string) {
	opts := sqo.DefaultEvalOptions()
	opts.Elim = elim
	opts.Magic = magic
	var row p10Row
	var answers []string
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		tuples, stats, err := sqo.QueryWith(p, db, opts)
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start).Nanoseconds()
		if trial == 0 || wall < row.WallNs {
			row = p10Row{
				Answers: len(tuples),
				Derived: stats.TuplesDerived,
				Probes:  stats.JoinProbes,
				Elim:    stats.ElimApplied,
				WallNs:  wall,
			}
		}
		answers = answers[:0]
		for _, t := range tuples {
			answers = append(answers, t.String())
		}
		sort.Strings(answers)
	}
	return row, answers
}

func runP10() {
	people, items := 50, 20
	chains, chainLen := 15, 40
	if *quick {
		people, items = 20, 8
		chains, chainLen = 6, 20
	}

	const trendyPoint = `
		buys(X, Y) :- likes(X, Y).
		buys(X, Y) :- trendy(X), buys(Z, Y).
		?- buys(0, Y).
	`
	const trendyFull = `
		buys(X, Y) :- likes(X, Y).
		buys(X, Y) :- trendy(X), buys(Z, Y).
		?- buys.
	`
	const piecewise = `
		q(X, Y) :- likes(X, Y).
		q(X, Y) :- trendy(X), q(Z, Y).
		q(X, Y) :- trendy(Y), q(X, Z).
		?- q.
	`
	const tcPoint = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(0, Y).
	`

	type mode struct {
		name  string
		elim  sqo.ElimMode
		magic sqo.MagicMode
	}
	fixpointOnly := []mode{
		{"fixpoint", sqo.ElimOff, sqo.MagicOff},
		{"elim", sqo.ElimAuto, sqo.MagicOff},
	}
	cases := []struct {
		name  string
		src   string
		facts []ast.Atom
		modes []mode
	}{
		{"trendy-point", trendyPoint, p10TrendyFacts(people, items), []mode{
			{"fixpoint", sqo.ElimOff, sqo.MagicOff},
			{"fixpoint+magic", sqo.ElimOff, sqo.MagicAuto},
			{"elim", sqo.ElimAuto, sqo.MagicOff},
			{"elim+magic", sqo.ElimAuto, sqo.MagicAuto},
		}},
		{"trendy-full", trendyFull, p10TrendyFacts(people, items), fixpointOnly},
		{"piecewise-full", piecewise, p10TrendyFacts(people/2, items/2), fixpointOnly},
		{"tc-fallback-point", tcPoint, p8DisjointChains(chains, chainLen), []mode{
			{"fixpoint", sqo.ElimOff, sqo.MagicOff},
			{"elim-auto", sqo.ElimAuto, sqo.MagicOff},
		}},
	}

	report := p10Report{
		CPUs:   runtime.NumCPU(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Go:     runtime.Version(),
	}

	header("workload", "mode", "elim", "answers", "derived", "probes", "wall")
	for _, c := range cases {
		unit, err := sqo.Parse(c.src)
		if err != nil {
			log.Fatal(err)
		}
		db := sqo.NewDBFrom(c.facts)
		var baseAnswers []string
		var baseDerived, baseProbes int64
		for i, m := range c.modes {
			row, answers := p10Measure(unit.Program, db, m.elim, m.magic)
			row.Workload, row.Mode = c.name, m.name
			if i == 0 {
				baseAnswers, baseDerived, baseProbes = answers, row.Derived, row.Probes
			} else if !reflect.DeepEqual(answers, baseAnswers) {
				log.Fatalf("%s/%s: answers diverge from fixpoint (%d vs %d)",
					c.name, m.name, len(answers), len(baseAnswers))
			}
			report.Rows = append(report.Rows, row)
			note := ""
			if i > 0 && row.Elim && baseDerived > 0 {
				note = fmt.Sprintf("  (%s fewer derived, %s fewer probes)",
					ratio(baseDerived, row.Derived), ratio(baseProbes, row.Probes))
			}
			fmt.Printf("%-17s | %-14s | %-5v | %7d | %8d | %8d | %8v%s\n",
				row.Workload, row.Mode, row.Elim, row.Answers, row.Derived, row.Probes,
				time.Duration(row.WallNs).Round(10*time.Microsecond), note)
		}
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
}
