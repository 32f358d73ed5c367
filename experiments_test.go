package sqo

// TestExperiments computes the counter columns of every EXPERIMENTS.md
// section that has them — probes, derived tuples, answers, tree nodes,
// verdicts, WAL bytes — and holds them to testdata/experiments.golden,
// one markdown table per experiment id, numbers rendered as
// EXPERIMENTS.md renders them. TestExperimentsDocMatchesGolden
// (docs_test.go) holds the document's tables to the golden in turn.
// Timing columns are not computed here: they are dated host
// measurements, regenerated by the package's go test -bench functions.
//
//	go test -run TestExperiments          # check
//	go test -run TestExperiments -update  # rewrite the golden

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/store"
	"repro/internal/tcm"
	"repro/internal/workload"
)

const experimentsGolden = "testdata/experiments.golden"

// expTable is one experiment's golden table.
type expTable struct {
	id   string
	cols []string
	rows [][]string
}

// add appends a row, rendering integers with thousands separators and
// everything else with %v.
func (t *expTable) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case int:
			row[i] = thousands(int64(v))
		case int64:
			row[i] = thousands(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *expTable) render(b *strings.Builder) {
	fmt.Fprintf(b, "## %s\n\n| %s |\n|%s\n", t.id, strings.Join(t.cols, " | "), strings.Repeat("---|", len(t.cols)))
	for _, r := range t.rows {
		fmt.Fprintf(b, "| %s |\n", strings.Join(r, " | "))
	}
}

// thousands renders a counter as EXPERIMENTS.md does: "2,551,000".
func thousands(n int64) string {
	s := strconv.FormatInt(n, 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// speedup renders a/b as EXPERIMENTS.md does: "14.1x".
func speedup(a, b int64) string {
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// run is one evaluation's counters.
type run struct {
	answers          int
	derived, probes  int64
	reorders, peak   int64
	elim             bool
	sortedAnswerText []string
}

// evalRun evaluates p as written (EvalCtx) and counts its query
// predicate's facts.
func evalRun(t *testing.T, p *Program, db *DB) run {
	t.Helper()
	idb, stats, err := EvalCtx(context.Background(), p, db, DefaultEvalOptions())
	if err != nil {
		t.Fatal(err)
	}
	return run{answers: idb.Count(p.Query), derived: stats.TuplesDerived, probes: stats.JoinProbes, reorders: stats.AdaptiveReorders}
}

// queryRun evaluates p as a query (QueryCtx) under opts.
func queryRun(t *testing.T, p *Program, db *DB, opts EvalOptions) run {
	t.Helper()
	tuples, stats, err := QueryCtx(context.Background(), p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return run{
		answers: len(tuples), derived: stats.TuplesDerived, probes: stats.JoinProbes,
		peak: stats.PeakMaterialized, elim: stats.ElimApplied, sortedAnswerText: sortedText(tuples),
	}
}

func sortedText[T fmt.Stringer](ts []T) []string {
	out := make([]string, len(ts))
	for i, x := range ts {
		out[i] = x.String()
	}
	sort.Strings(out)
	return out
}

func mustOptimize(t *testing.T, p *Program, ics []IC) *Result {
	t.Helper()
	res, err := Optimize(p, ics)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const figure1IC = `:- a(X, Y), b(Y, Z).`

const thresholdICs = `
	:- startPoint(X), step(X, Y), X < 100.
	:- step(X, Y), X >= Y.
`

// F1: Figure 1's forest has three roots and its rewrite the six rules
// s1..s6 besides the wrappers; TestCompileGolden pins the rules.
func expF1(t *testing.T) *expTable {
	res := mustOptimize(t, MustParseProgram(figure1Src), MustParseICs(figure1IC))
	core := 0
	for _, r := range res.Program.Rules {
		if r.Head.Pred != "p" {
			core++
		}
	}
	tab := &expTable{id: "F1", cols: []string{"roots", "core rules"}}
	tab.add(res.Tree.Stats().Roots, core)
	return tab
}

// E1: Example 3.1's residue Y > X on the goodPath rule, path
// materialized as EDB.
func expE1(t *testing.T) *expTable {
	p := MustParseProgram(`
		goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
		?- goodPath.
	`)
	res := mustOptimize(t, p, MustParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`))
	tab := &expTable{id: "E1", cols: []string{"starts k", "fanout m", "orig probes", "opt probes", "speedup", "agree"}}
	for _, k := range []int{20, 40, 80} {
		db := NewDBFrom(workload.StarPaths(k, k))
		mo, mr := evalRun(t, p, db), evalRun(t, res.Program, db)
		tab.add(k, k, mo.probes, mr.probes, speedup(mo.probes, mr.probes), mo.answers == mr.answers)
	}
	return tab
}

// E2: Section 3's threshold pushed into the recursion.
func expE2(t *testing.T) *expTable {
	p := MustParseProgram(goodPathSrc)
	res := mustOptimize(t, p, MustParseICs(thresholdICs))
	tab := &expTable{id: "E2", cols: []string{"lowN", "orig derived", "opt derived", "derived speedup", "orig probes", "opt probes", "probe speedup"}}
	for _, low := range []int{50, 100, 200, 400} {
		db := NewDBFrom(workload.GoodPath(low, 100, 40))
		mo, mr := evalRun(t, p, db), evalRun(t, res.Program, db)
		if mo.answers != mr.answers {
			t.Errorf("E2 lowN=%d: %d answers optimized, %d original", low, mr.answers, mo.answers)
		}
		tab.add(low, mo.derived, mr.derived, speedup(mo.derived, mr.derived), mo.probes, mr.probes, speedup(mo.probes, mr.probes))
	}
	return tab
}

// E3: Figure 1's rewrite evaluated as written (EvalCtx) and as a query
// (QueryCtx, which reads the union from the roots' rows).
func expE3(t *testing.T) *expTable {
	p := MustParseProgram(figure1Src)
	res := mustOptimize(t, p, MustParseICs(figure1IC))
	tab := &expTable{id: "E3", cols: []string{"width", "bLen", "aLen", "orig probes", "opt probes", "speedup", "opt query probes", "query speedup", "agree"}}
	for _, sh := range [][3]int{{4, 10, 10}, {8, 14, 14}, {12, 18, 18}} {
		db := NewDBFrom(workload.ABComb(sh[0], sh[1], sh[2]))
		mo, mr := evalRun(t, p, db), evalRun(t, res.Program, db)
		mq := queryRun(t, res.Program, db, DefaultEvalOptions())
		tab.add(sh[0], sh[1], sh[2], mo.probes, mr.probes, speedup(mo.probes, mr.probes),
			mq.probes, speedup(mo.probes, mq.probes), mo.answers == mr.answers && mo.answers == mq.answers)
	}
	return tab
}

// E4: query-tree size as edge flavours and chain ic's grow.
func expE4(t *testing.T) *expTable {
	tab := &expTable{id: "E4", cols: []string{"flavours k", "rules", "ics", "goal nodes", "rule nodes", "adornments"}}
	for k := 1; k <= 4; k++ {
		var src, icSrc strings.Builder
		for i := 0; i < k; i++ {
			fmt.Fprintf(&src, "p(X, Y) :- e%d(X, Y).\np(X, Y) :- e%d(X, Z), p(Z, Y).\n", i, i)
			if i+1 < k {
				fmt.Fprintf(&icSrc, ":- e%d(X, Y), e%d(Y, Z).\n", i+1, i)
			}
		}
		src.WriteString("?- p.\n")
		ics := MustParseICs(icSrc.String())
		s := mustOptimize(t, MustParseProgram(src.String()), ics).Tree.Stats()
		tab.add(k, 2*k, len(ics), s.GoalNodes, s.RuleNodes, s.Adornments)
	}
	return tab
}

// E5: emptiness of join chains with the middle join forbidden.
func expE5(t *testing.T) *expTable {
	tab := &expTable{id: "E5", cols: []string{"chain len", "verdict"}}
	for _, l := range []int{2, 4, 6, 8} {
		var body []string
		for i := 0; i < l; i++ {
			body = append(body, fmt.Sprintf("r%d(X%d, X%d)", i, i, i+1))
		}
		p := MustParseProgram(fmt.Sprintf("q(X0, X%d) :- %s.\n?- q.\n", l, strings.Join(body, ", ")))
		ics := MustParseICs(fmt.Sprintf(":- r%d(X, Y), r%d(Y, Z).", l/2-1, l/2))
		empty, decided, err := Empty(p, ics, EmptinessOptions{})
		if err != nil {
			t.Fatal(err)
		}
		verdict := map[bool]string{true: "empty", false: "nonempty"}[empty]
		if !decided {
			verdict = "unknown"
		}
		tab.add(l, verdict)
	}
	return tab
}

// E6: satisfiability against non-containment through the Proposition
// 5.1 reduction.
func expE6(t *testing.T) *expTable {
	tab := &expTable{id: "E6", cols: []string{"case", "satisfiable", "reduction agrees"}}
	for _, c := range []struct{ name, prog, ics string }{
		{"unsat join", "q(X, Z) :- a(X, Y), b(Y, Z).\n?- q.", figure1IC},
		{"sat join", "q(X, Z) :- a(X, Y), b(W, Z).\n?- q.", figure1IC},
		{"recursive", "q(X, Y) :- a(X, Y).\nq(X, Y) :- a(X, Z), q(Z, Y).\n?- q.", `:- a(X, Y), a(Y, Z).`},
	} {
		p, ics := MustParseProgram(c.prog), MustParseICs(c.ics)
		sat, err := Satisfiable(p, ics)
		if err != nil {
			t.Fatal(err)
		}
		rp, ucq, err := SatisfiabilityAsNonContainment(p, ics)
		if err != nil {
			t.Fatal(err)
		}
		contained, err := ProgramContainedInUCQ(rp, ucq)
		if err != nil {
			t.Fatal(err)
		}
		tab.add(c.name, sat, sat == !contained)
	}
	return tab
}

// E7: the Theorem 5.4 encoding run on concrete machines.
func expE7(t *testing.T) *expTable {
	tab := &expTable{id: "E7", cols: []string{"machine", "halted", "trace consistent", "halt derived", "EDB size", "ICs"}}
	for _, c := range []struct {
		name  string
		m     *Machine
		steps int
	}{
		{"halting-2", tcm.Halting2Step(), 10},
		{"countdown-2", tcm.CountdownMachine(2), 50},
		{"countdown-4", tcm.CountdownMachine(4), 100},
		{"diverging", tcm.Diverging(), 12},
	} {
		prog, ics, err := EncodeTwoCounter(c.m)
		if err != nil {
			t.Fatal(err)
		}
		facts, halted := TwoCounterTraceDB(c.m, c.steps)
		consistent, err := chase.IsConsistent(facts, ics)
		if err != nil {
			t.Fatal(err)
		}
		tuples, _, err := Query(prog, NewDBFrom(facts))
		if err != nil {
			t.Fatal(err)
		}
		tab.add(c.name, halted, consistent, len(tuples) == 1, len(facts), len(ics))
	}
	return tab
}

// E8: Proposition 5.2 — an unsatisfiable initialization rule empties
// the recursive program, and query-tree satisfiability agrees.
func expE8(t *testing.T) *expTable {
	p := MustParseProgram(`
		q(X, Z) :- a(X, Y), b(Y, Z).
		q(X, Z) :- c(X, Y), q(Y, Z).
		?- q.
	`)
	ics := MustParseICs(figure1IC)
	empty, decided, err := Empty(p, ics, EmptinessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sat, err := Satisfiable(p, ics)
	if err != nil {
		t.Fatal(err)
	}
	tab := &expTable{id: "E8", cols: []string{"empty", "decided", "satisfiable"}}
	tab.add(empty, decided, sat)
	return tab
}

// E9: the Theorem 5.1 family, whose query tree grows as 7^k goal nodes
// over 3^k adornments.
func expE9(t *testing.T) *expTable {
	tab := &expTable{id: "E9", cols: []string{"k", "rules", "ics", "goal nodes", "rule nodes", "roots", "adornments", "rules out"}}
	for k := 1; k <= 4; k++ {
		src, icSrc := workload.Theorem51(k)
		p, ics := MustParseProgram(src), MustParseICs(icSrc)
		res := mustOptimize(t, p, ics)
		s := res.Tree.Stats()
		tab.add(k, len(p.Rules), len(ics), s.GoalNodes, s.RuleNodes, s.Roots, s.Adornments, len(res.Program.Rules))
	}
	return tab
}

// A1: the pipeline passes ablated on E2's lowN=200 workload.
func expA1(t *testing.T) *expTable {
	p := MustParseProgram(goodPathSrc)
	ics := MustParseICs(thresholdICs)
	db := NewDBFrom(workload.GoodPath(200, 100, 40))
	base := evalRun(t, p, db)
	tab := &expTable{id: "A1", cols: []string{"configuration", "derived", "probes", "probe speedup vs original"}}
	tab.add("original program", base.derived, base.probes, "1.0x")
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"full pipeline", DefaultOptions()},
		{"no push-order", Options{NormalizeOrder: true, LocalRewrite: true}},
		{"no local-rewrite", Options{NormalizeOrder: true, PushOrder: true}},
		{"core only", Options{}},
	} {
		res, err := OptimizeCtx(context.Background(), p, ics, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		m := evalRun(t, res.Program, db)
		if m.answers != base.answers {
			t.Errorf("A1 %s: %d answers, original %d", c.name, m.answers, base.answers)
		}
		tab.add(c.name, m.derived, m.probes, speedup(base.probes, m.probes))
	}
	return tab
}

// A2: the [CGM88] per-rule baseline against the query tree on E3's
// 8/14/14 comb.
func expA2(t *testing.T) *expTable {
	p := MustParseProgram(figure1Src)
	ics := MustParseICs(figure1IC)
	db := NewDBFrom(workload.ABComb(8, 14, 14))
	mo := evalRun(t, p, db)
	tab := &expTable{id: "A2", cols: []string{"optimizer", "rules", "probes", "speedup"}}
	for _, c := range []struct {
		name string
		p    *Program
	}{
		{"none", p},
		{"[CGM88]", BaselineOptimize(p, ics)},
		{"query tree", mustOptimize(t, p, ics).Program},
	} {
		m := evalRun(t, c.p, db)
		tab.add(c.name, len(c.p.Rules), m.probes, speedup(mo.probes, m.probes))
	}
	return tab
}

// P4: a materialized view maintained through single-fact and 1% deltas,
// each checked against a from-scratch query of the mutated database and
// undone by its inverse before the next.
func expP4(t *testing.T) *expTable {
	step := func(x, y int) Atom { return ast.NewAtom("step", ast.N(float64(x)), ast.N(float64(y))) }
	const chainN, randNodes, randEdges = 250, 150, 450
	// 1% of the chain as shortcut edges the closure already implies.
	var shortcuts []Atom
	for i := 1; i <= chainN/100+1; i++ {
		at := i * chainN / (chainN/100 + 2)
		shortcuts = append(shortcuts, step(at, at+2))
	}
	genSrc, _, _ := workload.RandomProgram(1)
	genFacts := workload.MonotoneRandomGraph(randNodes, randEdges, 99)
	for i := 0; i < randNodes; i += 3 {
		genFacts = append(genFacts, ast.NewAtom("mark", ast.N(float64(i))))
	}
	type delta struct {
		name       string
		adds, dels []Atom
	}
	tab := &expTable{id: "P4", cols: []string{"workload", "delta", "changed", "answers", "agree"}}
	for _, c := range []struct {
		name   string
		prog   *Program
		facts  []Atom
		deltas []delta
	}{
		{fmt.Sprintf("transclosure chain(%d)", chainN), MustParseProgram(`
			path(X, Y) :- step(X, Y).
			path(X, Y) :- step(X, Z), path(Z, Y).
			?- path.
		`), workload.Chain(1, chainN), []delta{
			{"add 1 (extend head)", []Atom{step(0, 1)}, nil},
			{"retract 1 (split mid)", nil, []Atom{step(chainN/2, chainN/2+1)}},
			{"add 1% (shortcuts)", shortcuts, nil},
		}},
		{fmt.Sprintf("random(seed 1) n=%d m=%d", randNodes, randEdges), MustParseProgram(genSrc), genFacts, []delta{
			{"add 1 edge", []Atom{step(0, randNodes-1)}, nil},
			{"retract 1 edge", nil, []Atom{genFacts[0]}},
			{"add 1% edges", workload.MonotoneRandomGraph(randNodes, randEdges/100+1, 7), nil},
		}},
	} {
		view, err := Materialize(c.prog, NewDBFrom(c.facts), ViewOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range c.deltas {
			ch, err := view.Apply(d.adds, d.dels)
			if err != nil {
				t.Fatal(err)
			}
			got, err := view.Answers()
			if err != nil {
				t.Fatal(err)
			}
			drop := map[string]bool{}
			for _, a := range d.dels {
				drop[a.String()] = true
			}
			var mutated []Atom
			for _, a := range c.facts {
				if !drop[a.String()] {
					mutated = append(mutated, a)
				}
			}
			want := queryRun(t, c.prog, NewDBFrom(append(mutated, d.adds...)), DefaultEvalOptions()).sortedAnswerText
			tab.add(c.name, d.name, len(ch.Added)+len(ch.Removed), len(want), reflect.DeepEqual(sortedText(got), want))
			if _, err := view.Apply(d.dels, d.adds); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab
}

// P6: the engine's one join order — the length tie-break
// (filter-skew), empty-subgoal skips (the random programs) and one
// mid-task reorder (hot-key) — with each workload's known answer count.
func expP6(t *testing.T) *expTable {
	num := func(i int) Term { return ast.N(float64(i)) }
	// filter-skew: no subgoal has a bound position, so the 5-row tag
	// relation goes first on its length alone; the answers are the edges
	// whose Y is a tag.
	const edges = 30000
	fsDB, fsAnswers := NewDB(), 0
	for i := 0; i < edges; i++ {
		fsDB.AddFact(Atom{Pred: "edge", Args: []Term{num(i), num(edges + i%97)}})
		if i%97 < 5 {
			fsAnswers++
		}
	}
	for i := 0; i < 5; i++ {
		fsDB.AddFact(Atom{Pred: "tag", Args: []Term{num(edges + i)}})
	}
	// hot-key: mid holds under two rows per key on average (the filler
	// keys hold one each), but each key src selects fans out to 200;
	// filler > srcs*(fanout-2) makes the order the lengths give wrong, and
	// the first src row's exact fan-out reorders the rest of the task.
	const srcs, fan, fill = 50, 200, 15000
	hkDB := NewDB()
	for x := 0; x < srcs; x++ {
		hkDB.AddFact(Atom{Pred: "src", Args: []Term{num(x)}})
		for z := 0; z < fan; z++ {
			hkDB.AddFact(Atom{Pred: "mid", Args: []Term{num(x), num(z)}})
		}
		hkDB.AddFact(Atom{Pred: "alt", Args: []Term{num(x), num(0)}})
		hkDB.AddFact(Atom{Pred: "alt", Args: []Term{num(x), num(1)}})
	}
	for x := srcs; x < srcs+fill; x++ {
		hkDB.AddFact(Atom{Pred: "mid", Args: []Term{num(x), num(x)}})
		hkDB.AddFact(Atom{Pred: "alt", Args: []Term{num(x), num(x)}})
		hkDB.AddFact(Atom{Pred: "alt", Args: []Term{num(x), num(x + 1)}})
	}
	rand3, _, facts3 := workload.RandomProgram(3)
	rand7, _, facts7 := workload.RandomProgram(7)
	tab := &expTable{id: "P6", cols: []string{"workload", "probes", "reorders", "answers", "agree"}}
	for _, c := range []struct {
		name    string
		prog    *Program
		db      *DB
		answers int
	}{
		{"random(3)", MustParseProgram(rand3), workload.DB(facts3), 19},
		{"random(7)", MustParseProgram(rand7), workload.DB(facts7), 28},
		{fmt.Sprintf("filter-skew(%d,5)", edges), MustParseProgram(`q(X) :- edge(X, Y), tag(Y). ?- q.`), fsDB, fsAnswers},
		{fmt.Sprintf("hot-key(%d,%d,%d)", srcs, fan, fill), MustParseProgram(`q(X, Z) :- src(X), mid(X, Z), alt(X, Z). ?- q.`), hkDB, 2 * srcs},
	} {
		m := evalRun(t, c.prog, c.db)
		tab.add(c.name, m.probes, m.reorders, m.answers, m.answers == c.answers)
	}
	return tab
}

// P7: the durable store's WAL counters per fsync policy on one
// deterministic mutation schedule (a dataset create, then insert
// batches with every fourth op a retraction), and what a cold open
// replays with and without checkpoints.
func expP7(t *testing.T) *expTable {
	// ops[i] is {adds, dels}; a run of n records is the prefix ops[:n].
	ops := [][2][]Atom{{workload.MonotoneRandomGraph(400, 12, 1), nil}}
	for i := 1; i < 4000; i++ {
		if i%4 == 3 {
			ops = append(ops, [2][]Atom{nil, workload.MonotoneRandomGraph(400, 12, int64(i-2))[:4]})
		} else {
			ops = append(ops, [2][]Atom{workload.MonotoneRandomGraph(400, 12, int64(i)), nil})
		}
	}
	build := func(dir string, opts store.Options, records int) *store.Store {
		s, _, err := store.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendDatasetCreate("bench", ops[0][0]); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops[1:records] {
			if err := s.AppendFacts("bench", op[0], op[1]); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	tab := &expTable{id: "P7", cols: []string{"workload", "mode", "records", "wal bytes", "replayed", "facts"}}
	for _, m := range []struct {
		name    string
		policy  store.FsyncPolicy
		records int
	}{
		{"wal-never", store.FsyncNever, 2000},
		{"wal-interval", store.FsyncInterval, 2000},
		{"wal-always", store.FsyncAlways, 150},
	} {
		s := build(t.TempDir(), store.Options{Fsync: m.policy}, m.records)
		c := s.Counters()
		tab.add(fmt.Sprintf("update(%d)", m.records), m.name, c.Appends, c.Bytes, "", len(s.Rows("bench", "step")))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []int{1000, 4000} {
		for _, ckpt := range []int{0, 750} {
			dir := t.TempDir()
			if err := build(dir, store.Options{Fsync: store.FsyncNever, CheckpointEvery: ckpt}, w).Close(); err != nil {
				t.Fatal(err)
			}
			s, rec, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			mode := "ckpt-none"
			if ckpt > 0 {
				mode = fmt.Sprintf("ckpt-%d", ckpt)
			}
			tab.add(fmt.Sprintf("recovery(%d)", w), mode, w, "", rec.WALRecords, len(s.Rows("bench", "step")))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab
}

// disjointChains returns k disjoint edge chains of n edges, chain c on
// nodes c*1000 .. c*1000+n.
func disjointChains(k, n int) []Atom {
	var out []Atom
	for c := 0; c < k; c++ {
		for i := c * 1000; i < c*1000+n; i++ {
			out = append(out, ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i+1))))
		}
	}
	return out
}

// modeRun is one evaluation mode of a P8 or P10 workload.
type modeRun struct {
	name   string
	magic  MagicMode
	stream bool
	elim   ElimMode
}

// compareModes runs src over facts in every mode, requires each mode's
// answers to equal the first's, and returns the runs in mode order.
func compareModes(t *testing.T, id, workloadName, src string, facts []Atom, modes []modeRun) []run {
	t.Helper()
	unit, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDBFrom(facts)
	var runs []run
	for _, m := range modes {
		opts := DefaultEvalOptions()
		opts.Magic, opts.Stream, opts.Elim = m.magic, m.stream, m.elim
		r := queryRun(t, unit.Program, db, opts)
		if len(runs) > 0 && !reflect.DeepEqual(r.sortedAnswerText, runs[0].sortedAnswerText) {
			t.Errorf("%s %s/%s: answers diverge from %s (%d vs %d)", id, workloadName, m.name, modes[0].name, r.answers, runs[0].answers)
		}
		runs = append(runs, r)
	}
	return runs
}

// P8: goal-directed evaluation, bottom-up against magic sets and magic
// with streamed strata.
func expP8(t *testing.T) *expTable {
	const tc = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n"
	modes := []modeRun{
		{name: "bottomup", magic: MagicOff},
		{name: "magic", magic: MagicAuto},
		{name: "magic+stream", magic: MagicAuto, stream: true},
	}
	tab := &expTable{id: "P8", cols: []string{"workload", "mode", "answers", "derived", "probes", "peak", "fewer derived"}}
	for _, c := range []struct {
		name, src string
		facts     []Atom
	}{
		{"tc-right-point", tc + "?- path(0, Y).", disjointChains(15, 40)},
		{"tc-left-point", "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y).\n?- path(0, Y).", disjointChains(15, 40)},
		{"tc-full", tc + "?- path(X, Y).", disjointChains(15, 40)},
		{"random-point", tc + "?- path(1, Y).", workload.RandomGraph(120, 260, 8)},
		{"pipeline-point", `
			hop1(X, Y) :- edge(X, Y).
			hop2(X, Y) :- hop1(X, Z), edge(Z, Y).
			hop3(X, Y) :- hop2(X, Z), edge(Z, Y).
			q(X, Y) :- hop3(X, Z), edge(Z, Y).
			?- q(1, Y).
		`, workload.RandomGraph(120, 400, 9)},
	} {
		runs := compareModes(t, "P8", c.name, c.src, c.facts, modes)
		for i, r := range runs {
			note := ""
			if i > 0 {
				note = speedup(runs[0].derived, r.derived)
			}
			tab.add(c.name, modes[i].name, r.answers, r.derived, r.probes, r.peak, note)
		}
	}
	return tab
}

// P10: recursion elimination against the fixpoint, alone and ahead of
// magic, and the fallback on an unbounded program.
func expP10(t *testing.T) *expTable {
	// trendy(i) for each person, likes(i, 1000+i*100+j) for their items.
	trendy := func(people, items int) []Atom {
		var out []Atom
		for i := 0; i < people; i++ {
			out = append(out, ast.NewAtom("trendy", ast.N(float64(i))))
			for j := 0; j < items; j++ {
				out = append(out, ast.NewAtom("likes", ast.N(float64(i)), ast.N(float64(1000+i*100+j))))
			}
		}
		return out
	}
	const buys = "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).\n"
	fixpoint := modeRun{name: "fixpoint", magic: MagicOff, elim: ElimOff}
	elim := modeRun{name: "elim", magic: MagicOff, elim: ElimAuto}
	tab := &expTable{id: "P10", cols: []string{"workload", "mode", "elim", "answers", "derived", "probes", "fewer derived", "fewer probes"}}
	for _, c := range []struct {
		name, src string
		facts     []Atom
		modes     []modeRun
	}{
		{"trendy-point", buys + "?- buys(0, Y).", trendy(50, 20), []modeRun{
			fixpoint,
			{name: "fixpoint+magic", magic: MagicAuto, elim: ElimOff},
			elim,
			{name: "elim+magic", magic: MagicAuto, elim: ElimAuto},
		}},
		{"trendy-full", buys + "?- buys.", trendy(50, 20), []modeRun{fixpoint, elim}},
		{"piecewise-full", `
			q(X, Y) :- likes(X, Y).
			q(X, Y) :- trendy(X), q(Z, Y).
			q(X, Y) :- trendy(Y), q(X, Z).
			?- q.
		`, trendy(25, 10), []modeRun{fixpoint, elim}},
		{"tc-fallback-point", "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n?- path(0, Y).",
			disjointChains(15, 40), []modeRun{fixpoint, {name: "elim-auto", magic: MagicOff, elim: ElimAuto}}},
	} {
		runs := compareModes(t, "P10", c.name, c.src, c.facts, c.modes)
		for i, r := range runs {
			fewerDerived, fewerProbes := "", ""
			if i > 0 && r.elim {
				fewerDerived, fewerProbes = speedup(runs[0].derived, r.derived), speedup(runs[0].probes, r.probes)
			}
			tab.add(c.name, c.modes[i].name, r.elim, r.answers, r.derived, r.probes, fewerDerived, fewerProbes)
		}
	}
	return tab
}

// experiments lists the golden's experiments in EXPERIMENTS.md order.
var experiments = []func(*testing.T) *expTable{
	expF1, expE1, expE2, expE3, expE4, expE5, expE6, expE7, expE8, expE9, expA1, expA2, expP4, expP6, expP7, expP8, expP10,
}

func TestExperiments(t *testing.T) {
	var b strings.Builder
	b.WriteString("# The counter columns of EXPERIMENTS.md, written by go test -run TestExperiments -update.\n")
	for _, exp := range experiments {
		b.WriteString("\n")
		exp(t).render(&b)
	}
	if t.Failed() {
		return
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(experimentsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestExperiments -update)", err)
	}
	if string(wantBytes) == got {
		return
	}
	// Name every row that moved, under the experiment it belongs to.
	want := strings.Split(string(wantBytes), "\n")
	have := strings.Split(got, "\n")
	id := ""
	for i := 0; i < max(len(want), len(have)); i++ {
		w, h := lineAt(want, i), lineAt(have, i)
		if strings.HasPrefix(h, "## ") {
			id = strings.TrimPrefix(h, "## ")
		}
		if w != h {
			t.Errorf("%s: got  %s\n%*s want %s", id, h, len(id)+1, "", w)
		}
	}
	t.Log("rewrite the golden with go test -run TestExperiments -update if the change is intended")
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
