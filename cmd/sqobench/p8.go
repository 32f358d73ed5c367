package main

// P8: goal-directed evaluation — the magic-sets demand rewrite and
// streaming (unfolded) non-recursive strata, against plain bottom-up.
//
// Every workload is evaluated through the same QueryCtx entry point in
// three modes: bottom-up (magic off), magic, and magic+stream. Answers
// must be identical across modes — the run aborts otherwise — and the
// measured quantities are the work counters the engines maintain
// deterministically (tuples derived, join probes, peak materialized
// tuples at a round barrier) plus best-of-three wall clock.
//
// The workloads are chosen to show where magic wins and where it
// loses:
//
//   - tc-right-point / tc-left-point: a bound point query over the
//     transitive closure of K disjoint chains. Demand from the goal
//     reaches only one chain, so bottom-up materializes ~K times more
//     tuples than the query needs. The left-linear variant prunes
//     hardest: its demand set never grows past the goal constant.
//   - tc-full: the same program with an unbound goal. Magic does not
//     apply (no bound argument) and falls back to bottom-up — the
//     honest row where all three modes do identical work.
//   - random-point: a bound point query over the closure of a sparse
//     random graph; what pruning survives when reachability is not a
//     neat partition.
//   - pipeline-point: a four-stage non-recursive join pipeline. The
//     streaming mode unfolds the intermediate hop predicates into
//     their single consumer, which shows up as the peak-materialized
//     column dropping, not in derived-tuple counts.
//
// With -out the rows are written as JSON (committed as BENCH_8.json
// for regression tracking; peak_tuples is gated by benchdiff
// -peak-mem).

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
	"repro/internal/workload"
)

type p8Row struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Answers  int    `json:"answers"`
	Derived  int64  `json:"derived"`
	Probes   int64  `json:"probes"`
	Peak     int64  `json:"peak_tuples"`
	WallNs   int64  `json:"wall_ns"`
}

type p8Report struct {
	CPUs   int     `json:"cpus"`
	GOOS   string  `json:"goos"`
	GOARCH string  `json:"goarch"`
	Go     string  `json:"go_version"`
	Rows   []p8Row `json:"results"`
}

// p8DisjointChains returns K disjoint edge chains of n edges each,
// chain c occupying nodes c*1000 .. c*1000+n.
func p8DisjointChains(k, n int) []ast.Atom {
	var out []ast.Atom
	for c := 0; c < k; c++ {
		base := c * 1000
		for i := 0; i < n; i++ {
			out = append(out, ast.NewAtom("edge", ast.N(float64(base+i)), ast.N(float64(base+i+1))))
		}
	}
	return out
}

// p8Measure evaluates the program in one mode, best of three, and
// verifies nothing: the caller compares answers across modes.
func p8Measure(p *sqo.Program, db *sqo.DB, magic sqo.MagicMode, stream bool) (p8Row, []string) {
	opts := sqo.DefaultEvalOptions()
	opts.Magic = magic
	opts.Stream = stream
	var row p8Row
	var answers []string
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		tuples, stats, err := sqo.QueryWith(p, db, opts)
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start).Nanoseconds()
		if trial == 0 || wall < row.WallNs {
			row = p8Row{
				Answers: len(tuples),
				Derived: stats.TuplesDerived,
				Probes:  stats.JoinProbes,
				Peak:    stats.PeakMaterialized,
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

func runP8() {
	chains, chainLen := 15, 40
	randNodes, randEdges := 120, 260
	pipeEdges := 400
	if *quick {
		chains, chainLen = 6, 20
		randNodes, randEdges = 60, 120
		pipeEdges = 120
	}

	const rightTC = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(0, Y).
	`
	const leftTC = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		?- path(0, Y).
	`
	const fullTC = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(X, Y).
	`
	const pipeline = `
		hop1(X, Y) :- edge(X, Y).
		hop2(X, Y) :- hop1(X, Z), edge(Z, Y).
		hop3(X, Y) :- hop2(X, Z), edge(Z, Y).
		q(X, Y) :- hop3(X, Z), edge(Z, Y).
		?- q(1, Y).
	`
	const randTC = `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		?- path(1, Y).
	`

	cases := []struct {
		name  string
		src   string
		facts []ast.Atom
	}{
		{"tc-right-point", rightTC, p8DisjointChains(chains, chainLen)},
		{"tc-left-point", leftTC, p8DisjointChains(chains, chainLen)},
		{"tc-full", fullTC, p8DisjointChains(chains, chainLen)},
		{"random-point", randTC, workload.RandomGraph(randNodes, randEdges, 8)},
		{"pipeline-point", pipeline, workload.RandomGraph(randNodes, pipeEdges, 9)},
	}
	modes := []struct {
		name   string
		magic  sqo.MagicMode
		stream bool
	}{
		{"bottomup", sqo.MagicOff, false},
		{"magic", sqo.MagicAuto, false},
		{"magic+stream", sqo.MagicAuto, true},
	}

	report := p8Report{
		CPUs:   runtime.NumCPU(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Go:     runtime.Version(),
	}

	header("workload", "mode", "answers", "derived", "probes", "peak", "wall")
	for _, c := range cases {
		unit, err := sqo.Parse(c.src)
		if err != nil {
			log.Fatal(err)
		}
		db := sqo.NewDBFrom(c.facts)
		var baseAnswers []string
		var baseDerived int64
		for i, m := range modes {
			row, answers := p8Measure(unit.Program, db, m.magic, m.stream)
			row.Workload, row.Mode = c.name, m.name
			if i == 0 {
				baseAnswers, baseDerived = answers, row.Derived
			} else if !reflect.DeepEqual(answers, baseAnswers) {
				log.Fatalf("%s/%s: answers diverge from bottom-up (%d vs %d)",
					c.name, m.name, len(answers), len(baseAnswers))
			}
			report.Rows = append(report.Rows, row)
			note := ""
			if i > 0 && baseDerived > 0 {
				note = "  (" + ratio(baseDerived, row.Derived) + " fewer derived)"
			}
			fmt.Printf("%-14s | %-12s | %7d | %8d | %8d | %6d | %8v%s\n",
				row.Workload, row.Mode, row.Answers, row.Derived, row.Probes, row.Peak,
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
