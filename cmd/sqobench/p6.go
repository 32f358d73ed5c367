package main

// P6: the engine's one join order on the workloads each of its parts is
// for — greedy on bound positions with ties between EDB subgoals broken
// by exact relation length (filter-skew), tasks with an empty subgoal
// skipped, and one mid-task reorder from exact fan-outs (hot-key) — plus
// two random programs. Plan time (order computation and plan
// compilation, the reorder's included) and run time (everything else)
// are reported separately. agree checks each workload's answer count
// against the one it is known to have: a miss is a bug, not a data
// point. With -out the rows are written as JSON (committed as
// BENCH_6.json for regression tracking).

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	sqo "repro"
	"repro/internal/ast"
	"repro/internal/workload"
)

type p6Row struct {
	Workload string `json:"workload"`
	PlanNs   int64  `json:"plan_ns"`
	RunNs    int64  `json:"run_ns"`
	Probes   int64  `json:"probes"`
	Reorders int64  `json:"reorders"`
	Answers  int    `json:"answers"`
}

type p6Report struct {
	CPUs   int     `json:"cpus"`
	GOOS   string  `json:"goos"`
	GOARCH string  `json:"goarch"`
	Go     string  `json:"go_version"`
	Rows   []p6Row `json:"results"`
}

// p6FilterSkew builds the workload the length tie-break is for: a
// textual order that joins the huge relation first, while a selective
// filter sits one subgoal to the right. Neither subgoal has a bound
// position, so the 5-row tag relation goes first on its length alone.
// Its answers are the edges whose Y is a tag.
func p6FilterSkew(edges int) (*sqo.Program, *sqo.DB, int) {
	p := sqo.MustParseProgram(`q(X) :- edge(X, Y), tag(Y). ?- q.`)
	db := sqo.NewDB()
	for i := 0; i < edges; i++ {
		db.AddFact(sqo.Atom{Pred: "edge", Args: []sqo.Term{num(i), num(edges + i%97)}})
	}
	answers := 0
	for i := 0; i < edges; i++ {
		if i%97 < 5 {
			answers++
		}
	}
	for i := 0; i < 5; i++ {
		db.AddFact(sqo.Atom{Pred: "tag", Args: []sqo.Term{num(edges + i)}})
	}
	return p, db, answers
}

// p6HotKey builds the workload the mid-task reorder is for: an average
// that misleads. mid has under two rows per key (filler keys carry one
// row each), but every key src actually selects fans out to `fanout`
// rows; alt is uniformly two rows per key. The lengths order
// [src, mid, alt] and the first src row pays the full fan-out; the
// reorder sees it against mid's exact rows per key and runs the rest of
// the task as [src, alt, mid]. Every src key answers twice.
func p6HotKey(srcs, fanout, filler int) (*sqo.Program, *sqo.DB) {
	p := sqo.MustParseProgram(`q(X, Z) :- src(X), mid(X, Z), alt(X, Z). ?- q.`)
	db := sqo.NewDB()
	for x := 0; x < srcs; x++ {
		db.AddFact(sqo.Atom{Pred: "src", Args: []sqo.Term{num(x)}})
		for z := 0; z < fanout; z++ {
			db.AddFact(sqo.Atom{Pred: "mid", Args: []sqo.Term{num(x), num(z)}})
		}
		db.AddFact(sqo.Atom{Pred: "alt", Args: []sqo.Term{num(x), num(0)}})
		db.AddFact(sqo.Atom{Pred: "alt", Args: []sqo.Term{num(x), num(1)}})
	}
	for x := srcs; x < srcs+filler; x++ {
		db.AddFact(sqo.Atom{Pred: "mid", Args: []sqo.Term{num(x), num(x)}})
		db.AddFact(sqo.Atom{Pred: "alt", Args: []sqo.Term{num(x), num(x)}})
		db.AddFact(sqo.Atom{Pred: "alt", Args: []sqo.Term{num(x), num(x + 1)}})
	}
	return p, db
}

func num(i int) sqo.Term { return ast.N(float64(i)) }

func runP6() {
	type p6case struct {
		name    string
		prog    *sqo.Program
		db      *sqo.DB
		answers int
	}
	// Hot-key needs filler > srcs*(fanout-2) so mid's rows per key
	// undercut alt's uniform 2.0 and the first order is genuinely wrong
	// (that is the point of the workload).
	edges, fan, fill := 30000, 200, 15000
	if *quick {
		edges, fan, fill = 4000, 120, 8000
	}
	randProg3, _, randFacts3 := workload.RandomProgram(3)
	randProg7, _, randFacts7 := workload.RandomProgram(7)
	fsProg, fsDB, fsAnswers := p6FilterSkew(edges)
	hkProg, hkDB := p6HotKey(50, fan, fill)
	cases := []p6case{
		{"random(3)", sqo.MustParseProgram(randProg3), workload.DB(randFacts3), 19},
		{"random(7)", sqo.MustParseProgram(randProg7), workload.DB(randFacts7), 28},
		{fmt.Sprintf("filter-skew(%d,5)", edges), fsProg, fsDB, fsAnswers},
		{fmt.Sprintf("hot-key(50,%d,%d)", fan, fill), hkProg, hkDB, 2 * 50},
	}

	report := p6Report{
		CPUs:   runtime.NumCPU(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Go:     runtime.Version(),
	}
	header("workload", "plan", "run", "probes", "reorders", "agree")
	for _, c := range cases {
		// Best of 3 on total wall clock; the winning run's plan/run split
		// and counters stand.
		var best *sqo.Stats
		var bestElapsed time.Duration
		var answers int
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			idb, stats, err := sqo.EvalWith(c.prog, c.db, sqo.DefaultEvalOptions())
			elapsed := time.Since(start)
			if err != nil {
				log.Fatal(err)
			}
			if best == nil || elapsed < bestElapsed {
				best, bestElapsed = stats, elapsed
				answers = idb.Count(c.prog.Query)
			}
		}
		r := p6Row{
			Workload: c.name,
			PlanNs:   best.PlanNanos,
			RunNs:    bestElapsed.Nanoseconds() - best.PlanNanos,
			Probes:   best.JoinProbes,
			Reorders: best.AdaptiveReorders,
			Answers:  answers,
		}
		fmt.Printf("%-22s | %10v | %10v | %9d | %8d | %v\n",
			r.Workload,
			time.Duration(r.PlanNs).Round(time.Microsecond),
			time.Duration(r.RunNs).Round(time.Microsecond),
			r.Probes, r.Reorders, r.Answers == c.answers)
		report.Rows = append(report.Rows, r)
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
