// sqobench runs the reproduction's experiment suite — one experiment
// per row of DESIGN.md's per-experiment index — and prints the tables
// recorded in EXPERIMENTS.md. The paper is a theory paper with a
// single figure, so the suite reproduces Figure 1 structurally and
// turns the paper's worked examples and theorems into measured
// workloads whose *shape* (who wins, by what factor, where the effect
// comes from) is the reproduction target.
//
// Usage:
//
//	sqobench [-run F1|E1|E2|E3|E4|E5|E6|E7|E8|A1|A2|P2|P4|P5|P6|P7|P8|P10] [-quick]
//	         [-out bench.json] [-cpuprofile cpu.prof] [-memprofile mem.prof]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	sqo "repro"
)

var (
	quick   = flag.Bool("quick", false, "smaller sweeps")
	outPath = flag.String("out", "", "write machine-readable P4/P6/P7/P8/P10 results (JSON) to this file")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sqobench: ")
	runSel := flag.String("run", "", "run a single experiment (F1, E1..E8, A1, A2, P2, P4..P8, P10)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC() // materialize the retained heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}()

	experiments := []struct {
		id   string
		name string
		fn   func()
	}{
		{"F1", "Figure 1: query forest and rewritten rules s1..s6", runF1},
		{"E1", "Example 3.1: goodPath with Y > X residue", runE1},
		{"E2", "Section 3: threshold 100 pushed into the recursion", runE2},
		{"E3", "Section 4: no b-edge after an a-edge", runE3},
		{"E4", "Theorem 5.1: query-tree construction cost", runE4},
		{"E5", "Theorem 5.2(1): NP emptiness decisions", runE5},
		{"E6", "Proposition 5.1: containment <-> satisfiability", runE6},
		{"E7", "Theorem 5.4: two-counter-machine reduction", runE7},
		{"E8", "Proposition 5.2: emptiness via initialization rules", runE8},
		{"A1", "Ablation: pipeline passes on the threshold workload", runA1},
		{"A2", "Ablation: [CGM88] per-rule baseline vs query tree", runA2},
		{"P2", "Rewrite-cache amortization (cold vs cache hit)", runP2},
		{"P4", "Incremental view maintenance vs recompute", runP4},
		{"P5", "Lint wall-clock per check family", runP5},
		{"P6", "Join order: exact-length ties, empty-subgoal skips, one mid-task reorder", runP6},
		{"P7", "Durable store: update overhead and cold-start recovery", runP7},
		{"P8", "Goal-directed evaluation: magic sets + streaming strata", runP8},
		{"P10", "Boundedness: recursion elimination vs fixpoint + fallback cost", runP10},
	}
	for _, e := range experiments {
		if *runSel != "" && !strings.EqualFold(*runSel, e.id) {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", e.id, e.name)
		e.fn()
	}
}

const goodPathSrc = `
	path(X, Y) :- step(X, Y).
	path(X, Y) :- step(X, Z), path(Z, Y).
	goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
	?- goodPath.
`

const figure1Src = `
	p(X, Y) :- a(X, Y).
	p(X, Y) :- b(X, Y).
	p(X, Y) :- a(X, Z), p(Z, Y).
	p(X, Y) :- b(X, Z), p(Z, Y).
	?- p.
`

type measurement struct {
	answers int
	derived int64
	probes  int64
	elapsed time.Duration
}

func measure(p *sqo.Program, db *sqo.DB) measurement {
	return measureWith(p, db, sqo.DefaultEvalOptions())
}

func measureWith(p *sqo.Program, db *sqo.DB, opts sqo.EvalOptions) measurement {
	start := time.Now()
	idb, stats, err := sqo.EvalWith(p, db, opts)
	if err != nil {
		log.Fatal(err)
	}
	return measurement{
		answers: idb.Count(p.Query),
		derived: stats.TuplesDerived,
		probes:  stats.JoinProbes,
		elapsed: time.Since(start),
	}
}

func ratio(a, b int64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

func header(cols ...string) {
	fmt.Println(strings.Join(cols, " | "))
	var dashes []string
	for _, c := range cols {
		dashes = append(dashes, strings.Repeat("-", len(c)))
	}
	fmt.Println(strings.Join(dashes, "-|-"))
}
