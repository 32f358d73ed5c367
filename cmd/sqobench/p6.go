package main

// P6: join-order policies of the compiled engine — greedy (static,
// most-bound-first), cost (per-round orders from maintained relation
// statistics), adaptive (cost orders plus run-time reordering and
// empty-subgoal skips). Same programs, same databases; plan time (statistics reads + order computation + plan
// compilation) and run time (everything else) are reported separately
// because the policies trade one for the other. Answers must agree
// across all three policies on every workload — a disagreement is a
// bug, not a data point. With -out the rows are written as JSON
// (committed as BENCH_6.json for regression tracking).

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
	Policy   string `json:"policy"`
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

// p6FilterSkew builds the workload cost ordering exists for: a textual
// order that joins the huge relation first, while a selective filter
// sits one subgoal to the right. Statistics see the 5-value tag column
// immediately.
func p6FilterSkew(edges int) (*sqo.Program, *sqo.DB) {
	p := sqo.MustParseProgram(`q(X) :- edge(X, Y), tag(Y). ?- q.`)
	db := sqo.NewDB()
	for i := 0; i < edges; i++ {
		db.AddFact(sqo.Atom{Pred: "edge", Args: []sqo.Term{num(i), num(edges + i%97)}})
	}
	for i := 0; i < 5; i++ {
		db.AddFact(sqo.Atom{Pred: "tag", Args: []sqo.Term{num(edges + i)}})
	}
	return p, db
}

// p6HotKey builds the workload adaptivity exists for: column-level
// statistics that mislead the cost model. mid averages under two rows
// per key (filler keys carry one row each), but every key src actually
// selects fans out to `fanout` rows; alt is uniformly two rows per
// key. Cost orders [src, mid, alt] on the averages and pays the full
// fan-out; adaptive observes the blow-up on the first src row and
// reorders the rest of the task to [src, alt, mid].
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
		name string
		prog *sqo.Program
		db   *sqo.DB
	}
	// Hot-key needs filler > srcs*(fanout-2) so mid's average fan-out
	// estimate undercuts alt's uniform 2.0 and the cost model is
	// genuinely misled (that is the point of the workload).
	edges, fan, fill := 30000, 200, 15000
	if *quick {
		edges, fan, fill = 4000, 120, 8000
	}
	randProg3, _, randFacts3 := workload.RandomProgram(3)
	randProg7, _, randFacts7 := workload.RandomProgram(7)
	fsProg, fsDB := p6FilterSkew(edges)
	hkProg, hkDB := p6HotKey(50, fan, fill)
	cases := []p6case{
		{"random(3)", sqo.MustParseProgram(randProg3), workload.DB(randFacts3)},
		{"random(7)", sqo.MustParseProgram(randProg7), workload.DB(randFacts7)},
		{fmt.Sprintf("filter-skew(%d,5)", edges), fsProg, fsDB},
		{fmt.Sprintf("hot-key(50,%d,%d)", fan, fill), hkProg, hkDB},
	}

	report := p6Report{
		CPUs:   runtime.NumCPU(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Go:     runtime.Version(),
	}
	header("workload", "policy", "plan", "run", "probes", "reorders", "agree")
	for _, c := range cases {
		var rows []p6Row
		agree := true
		for _, pol := range []sqo.JoinOrderPolicy{sqo.PolicyGreedy, sqo.PolicyCost, sqo.PolicyAdaptive} {
			opts := sqo.DefaultEvalOptions()
			opts.Policy = pol
			// Best of 3 on total wall clock; the winning run's
			// plan/run split and counters stand.
			var best *sqo.Stats
			var bestElapsed time.Duration
			var answers int
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				idb, stats, err := sqo.EvalWith(c.prog, c.db, opts)
				elapsed := time.Since(start)
				if err != nil {
					log.Fatal(err)
				}
				if best == nil || elapsed < bestElapsed {
					best, bestElapsed = stats, elapsed
					answers = idb.Count(c.prog.Query)
				}
			}
			rows = append(rows, p6Row{
				Workload: c.name,
				Policy:   string(pol),
				PlanNs:   best.PlanNanos,
				RunNs:    bestElapsed.Nanoseconds() - best.PlanNanos,
				Probes:   best.JoinProbes,
				Reorders: best.AdaptiveReorders,
				Answers:  answers,
			})
		}
		for _, r := range rows[1:] {
			if r.Answers != rows[0].Answers {
				agree = false
			}
		}
		for _, r := range rows {
			fmt.Printf("%-22s | %-8s | %10v | %10v | %9d | %8d | %v\n",
				r.Workload, r.Policy,
				time.Duration(r.PlanNs).Round(time.Microsecond),
				time.Duration(r.RunNs).Round(time.Microsecond),
				r.Probes, r.Reorders, agree)
		}
		report.Rows = append(report.Rows, rows...)
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
