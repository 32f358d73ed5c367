package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	sqo "repro"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/qtree"
)

func TestPercentileAndTenBeyondRule(t *testing.T) {
	var xs []float64
	for i := 1; i <= 200; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || percentile([]float64{7}, 99) != 7 {
		t.Error("percentile of an empty or single sample")
	}
	// 200 samples: exactly ten lie beyond p95, only two beyond p99.
	if !supported(200, 95) || supported(199, 95) || supported(200, 99) || !supported(1000, 99) {
		t.Error("supported: the ten-samples-beyond rule is off")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestLibraryReportIsLowerQuartileAtNominalHostSpeed(t *testing.T) {
	// Three programs, four passes; the host twice as slow as nominal.
	ps := &passStats{lat: map[string][]float64{
		"a": {4, 2, 8, 6}, "b": {40, 20, 80, 60}, "c": {400, 200, 800, 600},
	}, passes: []float64{0.444, 0.222, 0.888, 0.666}, correct: 12, wall: 3}
	ps.cal.ms = []float64{2 * refNominalMS, 2 * refNominalMS, 9 * refNominalMS}
	if f := ps.cal.factor(); f != 2 {
		t.Fatalf("host factor %g, want 2", f)
	}
	if f := (&calibrator{}).factor(); f != 1 {
		t.Errorf("host factor with no samples %g, want 1", f)
	}
	out := newRunOutput()
	ps.report(out, "eval_wall_s", []string{"a", "b", "c"})
	// Lower quartiles: a 2, b 20, c 200 ms, a pass 0.222 s; halved.
	want := map[string]float64{"query_p50_ms": 10, "query_p95_ms": 100, "eval_wall_s": 0.111, "ops_per_s": 3 / 0.222 * 2, "host.slowdown": 2}
	for name, w := range want {
		if got := out.metrics[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, w)
		}
	}
	var c calibrator
	c.sample(refReps)
	if len(c.ms) != refReps || c.factor() <= 0 {
		t.Errorf("sample() recorded %v", c.ms)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %g, want 5.5/5.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},   // nested below
		{ID: 3, Parent: 2, Name: "a.x", Start: 15, End: 25}, // grandchild: not op's child
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a by 10
		{ID: 5, Parent: 1, Name: "c", Start: 60, End: 70},   // abuts b
		{ID: 6, Parent: 1, Name: "d", Start: 90, End: 120},  // runs past the parent
		{ID: 7, Parent: 1, Name: "b", Start: 35, End: 50},   // wholly inside b
	}
	self := selfTimes(spans)
	// op's children cover [10,70) and [90,100): 70 of 100.
	want := map[int]int64{1: 30, 2: 20, 3: 10, 4: 30, 5: 10, 6: 30, 7: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	l := layersOf(spans)
	if l.ns["b"] != 45 || l.calls["b"] != 2 || l.perCall("b") != 0.0225 || l.attributed() != 115 {
		t.Errorf("layersOf: b = %d ns in %d calls, attributed %d", l.ns["b"], l.calls["b"], l.attributed())
	}
}

func TestTracerNestsAndNilIsSilent(t *testing.T) {
	var none *tracer
	none.setOp(3)
	none.start("x")()
	tr := newTracer()
	tr.setOp(7)
	outer := tr.start("outer")
	tr.start("inner")()
	outer()
	tr.start("next")()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 1 || tr.spans[2].Parent != 0 || tr.spans[1].Op != 7 {
		t.Errorf("spans: %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End {
		t.Error("outer ended before inner")
	}
}

func TestOpListsAreDeterministic(t *testing.T) {
	for name, gen := range map[string]func(int64) []op{
		"point": func(s int64) []op { return pointOps(s, 500) },
		"mixed": func(s int64) []op { return mixedOps(s, 500) },
	} {
		a, b, c := opsSHA(gen(1)), opsSHA(gen(1)), opsSHA(gen(2))
		if a != b {
			t.Errorf("%s: the same seed gave two lists", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same list", name)
		}
	}
}

func TestPointOpsMeasureTheSameWorkForEverySeed(t *testing.T) {
	positions := func(seed int64) []int {
		hot := map[int]bool{}
		ops := pointOps(seed, 2000)
		for i, o := range ops {
			if o.Kind != opPoint {
				t.Fatalf("op %d is %s", i, o)
			}
			hot[o.Node] = true
		}
		opening := map[int]bool{}
		for _, o := range ops[:hotSetSize] {
			opening[o.Node] = true
		}
		if len(opening) != hotSetSize {
			t.Fatalf("the opening pass covers %d of the %d hot constants", len(opening), hotSetSize)
		}
		var out []int
		for n := range hot {
			out = append(out, n%stride)
		}
		sort.Ints(out)
		return out
	}
	a, b := positions(1), positions(99)
	if len(a) != hotSetSize {
		t.Fatalf("hot set has %d constants, want %d", len(a), hotSetSize)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hot positions differ between seeds: %v vs %v", a, b)
		}
	}
}

func TestMixedOpsPairingAndRegions(t *testing.T) {
	ops := mixedOps(5, 4000)
	st := newOracleState()
	initial := st.edges()
	kinds := map[opKind]int{}
	for i, o := range ops {
		if o.Region != i%numRegions {
			t.Fatalf("op %d (%s) sits at an index of region %d", i, o, i%numRegions)
		}
		kinds[o.Kind]++
		switch o.Kind {
		case opPoint:
			if regionOf(o.Node) != o.Region {
				t.Fatalf("op %d queries node %d outside its region", i, o.Node)
			}
		case opAdd, opRetract:
			if regionOf(o.X) != o.Region || regionOf(o.Y) != o.Region || o.X >= o.Y {
				t.Fatalf("op %d: edge %d->%d leaves region %d or breaks the ic", i, o.X, o.Y, o.Region)
			}
			changed := false
			if o.Kind == opAdd {
				changed = st.g[o.Region].add(o.X, o.Y)
			} else {
				changed = st.g[o.Region].remove(o.X, o.Y)
			}
			if !changed {
				t.Fatalf("op %d (%s) is a no-op: pairs overlap", i, o)
			}
		}
	}
	if got := st.edges(); got != initial {
		t.Errorf("a full pass leaves %d edges, started with %d", got, initial)
	}
	// The mix is fixed per block of 20, so whole blocks carry it exactly.
	whole := ops[:len(ops)/20*20]
	counts := map[opKind]int{}
	for _, o := range whole[:4000] {
		counts[o.Kind]++
	}
	if counts[opPoint] != 2200 || counts[opFull] != 200 || counts[opAdd]+counts[opRetract] != 1200 ||
		counts[opView] != 200 || counts[opLint] != 200 {
		t.Errorf("mix over 4000 operations: %v", counts)
	}
	cascades := 0
	for _, o := range ops {
		if o.Cascade && o.Kind == opRetract {
			cascades++
		}
	}
	if pairs := (kinds[opAdd] + kinds[opRetract]) / 2; cascades != pairs/cascadeEvery {
		t.Errorf("%d cascading pairs among %d", cascades, pairs)
	}
}

func TestGlobalReadBoundsHoldInEveryState(t *testing.T) {
	p := newServePlan(3, true)
	st := newOracleState()
	none := [numRegions]bool{}
	render := func() (paths, view []string) {
		for r := range st.g {
			paths = append(paths, renderPairs(st.g[r].closure(nil))...)
			view = append(view, renderPairs(viewOf(st.g[r]))...)
		}
		return paths, view
	}
	for i, o := range p.ops[:600] {
		switch o.Kind {
		case opAdd:
			st.g[o.Region].add(o.X, o.Y)
		case opRetract:
			st.g[o.Region].remove(o.X, o.Y)
		default:
			continue
		}
		st.refresh(o.X / stride)
		paths, view := render()
		// Exact on every region, and inside the bounds when no region is
		// the checker's own.
		for _, own := range [][numRegions]bool{allRegions, none} {
			if err := p.checkGlobal(paths, st, own, false); err != nil {
				t.Fatalf("after op %d: %v", i, err)
			}
			if err := p.checkGlobal(view, st, own, true); err != nil {
				t.Fatalf("after op %d: %v", i, err)
			}
		}
	}
	paths, _ := render()
	if err := p.checkGlobal(paths[1:], st, allRegions, false); err == nil {
		t.Error("a missing answer passed the exact check")
	}
	if err := p.checkGlobal(append(paths, "(0, 99)"), st, none, false); err == nil {
		t.Error("an impossible answer passed the bounds check")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricTablesMeetTheContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a contract name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound, %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup || len(endToEnd) > 16 {
		t.Error("end_to_end needs setup_s in s, lower is better, and at most 16 metrics")
	}
	traced := tracedMetrics()
	if len(traced) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(traced))
	}
	for _, m := range traced {
		check("per-layer", m.Name)
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), traced...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
}

func TestOracleAgreesWithItself(t *testing.T) {
	// Three independent routes to the closure of a small chain with a
	// shortcut: closed form, breadth-first search, naive fixpoint.
	facts := append(chainFacts(6), atoms("edge", []int{1, 4})...)
	var closed []string
	for i := 0; i <= 6; i++ {
		for j := i + 1; j <= 6; j++ {
			closed = append(closed, renderPair(pair{i, j}))
		}
	}
	sort.Strings(closed)
	bfs := closureOf("edge")(facts)
	sort.Strings(bfs)
	prog, err := parser.ParseProgram(tcRightSrc)
	if err != nil {
		t.Fatal(err)
	}
	naive := naiveEval(prog, facts)
	if strings.Join(closed, " ") != strings.Join(bfs, " ") || strings.Join(bfs, " ") != strings.Join(naive, " ") {
		t.Errorf("closed form %v\nbfs %v\nnaive %v", closed, bfs, naive)
	}

	tf := trendyFacts(3, 2)
	tp, err := parser.ParseProgram(trendySrc + "?- buys.\n")
	if err != nil {
		t.Fatal(err)
	}
	form := trendyClosedForm(tf)
	sort.Strings(form)
	if got := naiveEval(tp, tf); strings.Join(got, " ") != strings.Join(form, " ") || len(form) != 3*6 {
		t.Errorf("trendy: closed form %v, naive %v", form, got)
	}

	// Goals, comparisons and negation in the naive evaluator.
	np, err := parser.ParseProgram("q(X, Y) :- e(X, Y), !bad(Y), X < Y.\n?- q(1, Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	nf := append(atoms("e", []int{1, 2}, []int{1, 3}, []int{1, 0}, []int{2, 3}), atoms("bad", []int{3})...)
	if got := naiveEval(np, nf); strings.Join(got, " ") != "(1, 2)" {
		t.Errorf("naiveEval with goal, negation and comparison: %v", got)
	}

	d1, d2 := digestOf([]string{"(1, 2)", "(0, 1)"}, true), digestOf([]string{"(0, 1)", "(1, 2)"}, true)
	if d1 != d2 || d1 == digestOf([]string{"(0, 1)", "(1, 3)"}, true) {
		t.Error("digest must ignore order and nothing else")
	}
	if p, ok := parsePair(renderPair(pair{120, 7})); !ok || p != (pair{120, 7}) {
		t.Error("parsePair does not invert renderPair")
	}
}

// The mirrors the traced run times must be the functions the timed run
// calls, span bookkeeping apart.
func TestShadowOptimizeMirrorsOptimizeCtx(t *testing.T) {
	ctx := context.Background()
	for _, c := range optSet() {
		u, err := parser.Parse(c.src + c.ics)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := qtree.OptimizeCtx(ctx, u.Program, u.ICs, qtree.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := shadowOptimize(newTracer(), ctx, u.Program, u.ICs, qtree.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sqo.FormatProgram(got.Program)+sqo.Explain(got) != sqo.FormatProgram(want.Program)+sqo.Explain(want) ||
			got.Satisfiable != want.Satisfiable || len(got.Warnings) != len(want.Warnings) {
			t.Errorf("%s: shadowOptimize and OptimizeCtx disagree", c.name)
		}
	}
}

func TestCompileShadowMirrorsCompileProduct(t *testing.T) {
	ctx := context.Background()
	var agg shadowAgg
	var parsed int64
	for _, c := range optSet()[:8] {
		want, err := compileProduct(ctx, c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := compileShadow(newTracer(), ctx, c, &agg, &parsed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.text != want.text || got.findings != want.findings {
			t.Errorf("%s: compileShadow and compileProduct disagree", c.name)
		}
		if err := c.validate(got); err != nil {
			t.Error(err)
		}
	}
	if agg.magicApplied != 2 || agg.elimApplied != 1 {
		t.Errorf("magic applied %d times, elim %d; want 2 (funcdep, trendy) and 1 (trendy)", agg.magicApplied, agg.elimApplied)
	}
}

func TestShadowQueryMirrorsQueryCtx(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		src   string
		facts func() *eval.DB
	}{
		{tcRightSrc, func() *eval.DB { return sqo.NewDBFrom(chainFacts(12)) }},
		{pointSrc(3), func() *eval.DB { return sqo.NewDBFrom(chainFacts(12)) }},
		{trendySrc + "?- buys(0, Y).\n", func() *eval.DB { return sqo.NewDBFrom(trendyFacts(3, 2)) }},
	}
	for _, c := range cases {
		prog, err := parser.ParseProgram(c.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, stream := range []bool{false, true} {
			opts := eval.DefaultOptions()
			opts.Stream = stream
			want, ws, err := eval.QueryCtx(ctx, prog, c.facts(), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, gs, err := shadowQuery(newTracer(), ctx, prog, c.facts(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(renderTuples(got), renderTuples(want)) || !gs.Equal(ws) ||
				gs.MagicApplied != ws.MagicApplied || gs.ElimApplied != ws.ElimApplied || gs.ElimChecked != ws.ElimChecked {
				t.Errorf("%q stream=%t: shadowQuery and QueryCtx disagree", c.src, stream)
			}
		}
	}
}

func TestEvalSetOracleMatchesItsClosedForms(t *testing.T) {
	for _, c := range evalSet() {
		want := c.oracle(c.facts)
		if len(want) == 0 {
			t.Errorf("%s: the oracle has no answers", c.name)
		}
	}
	// The chain's closed form is n(n+1)/2 pairs.
	if n := len(evalSet()[0].oracle(nil)); n != 200*201/2 {
		t.Errorf("tc-chain oracle has %d tuples", n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	for _, c := range []struct {
		m        metricSpec
		old, new []float64
		want     string
	}{
		{lower, steady(10), steady(10.5), "same"},
		{lower, steady(10), steady(12), "worse"},
		{lower, steady(10), steady(8), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, []float64{8, 10, 12}, steady(12), "unresolved"},
	} {
		if got, _ := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.old, c.new, got, c.want)
		}
	}

	file := func(ops float64, probes float64, failed float64) *resultsFile {
		f := &resultsFile{Seed: 1, Seconds: 10}
		for _, v := range steady(ops) {
			f.Runs = append(f.Runs, runRecord{Workload: wServePoint, Metrics: map[string]float64{"ops_per_s": v, "failed_share": failed}})
		}
		f.Runs = append(f.Runs, runRecord{Workload: wServePoint, Trace: true, Metrics: map[string]float64{"eval.join_probes": probes}})
		return f
	}
	var buf bytes.Buffer
	if code := compareResults(&buf, file(100, 5000, 0), file(101, 5000, 0)); code != 0 {
		t.Errorf("equal files compare as %d:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "of 100 1/s") {
		t.Errorf("the ratio must name its base:\n%s", buf.String())
	}
	if code := compareResults(&buf, file(100, 5000, 0), file(70, 5000, 0)); code == 0 {
		t.Error("a 30% throughput loss passed")
	}
	if code := compareResults(&buf, file(100, 5000, 0), file(100, 5001, 0)); code == 0 {
		t.Error("a differing exact count passed")
	}
	if code := compareResults(&buf, file(100, 5000, 0), file(100, 5000, 0.01)); code == 0 {
		t.Error("a higher failed share passed")
	}
	if math.IsNaN(spread(nil)) {
		t.Error("spread of nothing")
	}
}
