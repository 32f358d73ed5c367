package main

// P4: incremental view maintenance (internal/incr) versus full
// recomputation. For each workload a view is materialized once; each
// delta row then times View.Apply for the delta (best of 3, restoring
// the base state with the inverse delta between repetitions) against
// a from-scratch evaluation of the mutated database. "agree" verifies
// the view's answers match the from-scratch answers bit-for-bit after
// the delta. With -out the rows are written as JSON (committed as
// BENCH_4.json).

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	sqo "repro"
	"repro/internal/ast"
	"repro/internal/workload"
)

type p4Row struct {
	Workload string `json:"workload"`
	Delta    string `json:"delta"`
	IncrNs   int64  `json:"incr_ns"`
	FullNs   int64  `json:"full_ns"`
	Changed  int    `json:"changed"` // answers added + removed by the delta
	Answers  int    `json:"answers"` // answers after the delta
	Agree    bool   `json:"agree"`
}

type p4Report struct {
	CPUs   int     `json:"cpus"`
	GOOS   string  `json:"goos"`
	GOARCH string  `json:"goarch"`
	Go     string  `json:"go_version"`
	Rows   []p4Row `json:"results"`
}

type p4Delta struct {
	name string
	adds []sqo.Atom
	dels []sqo.Atom
}

// p4ViewAnswers renders the view's sorted answers for agreement checks.
func p4ViewAnswers(v *sqo.View) []string {
	tuples, err := v.Answers()
	if err != nil {
		log.Fatal(err)
	}
	out := make([]string, len(tuples))
	for i, t := range tuples {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

func p4QueryAnswers(p *sqo.Program, db *sqo.DB, opts sqo.EvalOptions) []string {
	tuples, _, err := sqo.QueryWith(p, db, opts)
	if err != nil {
		log.Fatal(err)
	}
	out := make([]string, len(tuples))
	for i, t := range tuples {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

// p4Mutate applies a delta to a fact list (retractions first, then
// insertions — the same delete-then-insert semantics as View.Apply).
func p4Mutate(base []sqo.Atom, d p4Delta) []sqo.Atom {
	drop := map[string]bool{}
	for _, a := range d.dels {
		drop[a.String()] = true
	}
	out := make([]sqo.Atom, 0, len(base)+len(d.adds))
	for _, a := range base {
		if !drop[a.String()] {
			out = append(out, a)
		}
	}
	return append(out, d.adds...)
}

func runP4() {
	type p4case struct {
		name   string
		prog   *sqo.Program
		facts  []sqo.Atom
		deltas []p4Delta
	}
	num := func(i int) sqo.Term { return ast.N(float64(i)) }
	step := func(x, y int) sqo.Atom { return ast.NewAtom("step", num(x), num(y)) }

	tc := sqo.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	chainN := 250
	randNodes, randEdges := 150, 450
	if *quick {
		chainN = 120
		randNodes, randEdges = 80, 240
	}

	// 1% of the chain as shortcut edges (already implied by the
	// closure: a small delta whose maintenance discovers no new
	// answers — the best case for incremental).
	var shortcuts []sqo.Atom
	for i := 1; i <= chainN/100+1; i++ {
		at := i * chainN / (chainN/100 + 2)
		shortcuts = append(shortcuts, step(at, at+2))
	}

	genSrc, _, _ := workload.RandomProgram(1)
	gen, err := sqo.ParseProgram(genSrc)
	if err != nil {
		log.Fatal(err)
	}
	genFacts := workload.MonotoneRandomGraph(randNodes, randEdges, 99)
	for i := 0; i < randNodes; i += 3 {
		genFacts = append(genFacts, ast.NewAtom("mark", num(i)))
	}
	var genBatch []sqo.Atom
	genBatch = append(genBatch, workload.MonotoneRandomGraph(randNodes, randEdges/100+1, 7)...)

	cases := []p4case{
		{
			name:  fmt.Sprintf("transclosure chain(%d)", chainN),
			prog:  tc,
			facts: workload.Chain(1, chainN),
			deltas: []p4Delta{
				{name: "add 1 (extend head)", adds: []sqo.Atom{step(0, 1)}},
				{name: "retract 1 (split mid)", dels: []sqo.Atom{step(chainN/2, chainN/2+1)}},
				{name: "add 1% (shortcuts)", adds: shortcuts},
			},
		},
		{
			name:  fmt.Sprintf("random(seed 1) n=%d m=%d", randNodes, randEdges),
			prog:  gen,
			facts: genFacts,
			deltas: []p4Delta{
				{name: "add 1 edge", adds: []sqo.Atom{step(0, randNodes-1)}},
				{name: "retract 1 edge", dels: []sqo.Atom{genFacts[0]}},
				{name: "add 1% edges", adds: genBatch},
			},
		},
	}

	evalOpts := sqo.DefaultEvalOptions()

	report := p4Report{
		CPUs:   runtime.NumCPU(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Go:     runtime.Version(),
	}
	header("workload", "delta", "incremental", "recompute", "speedup", "changed", "agree")
	for _, c := range cases {
		view, err := sqo.Materialize(c.prog, sqo.NewDBFrom(c.facts), sqo.ViewOptions{})
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range c.deltas {
			// Forward apply, inverse apply to restore, best of 3.
			var incrNs int64
			var changed, answersAfter int
			agree := true
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				ch, err := view.Apply(d.adds, d.dels)
				elapsed := time.Since(start).Nanoseconds()
				if err != nil {
					log.Fatal(err)
				}
				if rep == 0 || elapsed < incrNs {
					incrNs = elapsed
				}
				changed = len(ch.Added) + len(ch.Removed)
				if rep == 0 {
					got := p4ViewAnswers(view)
					want := p4QueryAnswers(c.prog, sqo.NewDBFrom(p4Mutate(c.facts, d)), evalOpts)
					answersAfter = len(want)
					agree = len(got) == len(want)
					for i := 0; agree && i < len(got); i++ {
						agree = got[i] == want[i]
					}
				}
				if _, err := view.Apply(d.dels, d.adds); err != nil {
					log.Fatal(err)
				}
			}

			mutatedDB := sqo.NewDBFrom(p4Mutate(c.facts, d))
			var fullNs int64
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				if _, _, err := sqo.EvalWith(c.prog, mutatedDB, evalOpts); err != nil {
					log.Fatal(err)
				}
				if elapsed := time.Since(start).Nanoseconds(); rep == 0 || elapsed < fullNs {
					fullNs = elapsed
				}
			}

			fmt.Printf("%-28s | %-22s | %11v | %11v | %7s | %7d | %v\n",
				c.name, d.name,
				time.Duration(incrNs).Round(time.Microsecond),
				time.Duration(fullNs).Round(time.Microsecond),
				fmt.Sprintf("%.1fx", float64(fullNs)/float64(incrNs)),
				changed, agree)
			report.Rows = append(report.Rows, p4Row{
				Workload: c.name,
				Delta:    d.name,
				IncrNs:   incrNs,
				FullNs:   fullNs,
				Changed:  changed,
				Answers:  answersAfter,
				Agree:    agree,
			})
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
