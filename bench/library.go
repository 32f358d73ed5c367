package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	sqo "repro"
	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/eval"
	"repro/internal/lint"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/qtree"
	"repro/internal/server"
	"repro/internal/workload"
)

// The library workloads call the sqo facade in-process. Their program
// sets are fixed: the driver measures the spread between runs with
// different seeds, so a seed may reorder the work but never change how
// much of it there is. The seed shuffles each pass.

const (
	// tracedPasses is fixed, not timed, so the traced run's counts
	// repeat exactly.
	tracedPasses = 3
	minPasses    = 3
)

// heapAllocs reads the cumulative heap allocation counters without
// stopping the world.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// --- eval-fixpoint ------------------------------------------------------

const (
	tcRightSrc  = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n?- path.\n"
	goodPathSrc = "path(X, Y) :- step(X, Y).\npath(X, Y) :- step(X, Z), path(Z, Y).\n" +
		"goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).\n?- goodPath.\n"
	goodPathICs = ":- startPoint(X), step(X, Y), X < 100.\n:- step(X, Y), X >= Y.\n"
	figure1Src  = "p(X, Y) :- a(X, Y).\np(X, Y) :- b(X, Y).\np(X, Y) :- a(X, Z), p(Z, Y).\np(X, Y) :- b(X, Z), p(Z, Y).\n?- p.\n"
	figure1ICs  = ":- a(X, Y), b(Y, Z).\n"
	trendySrc   = "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).\n"
)

// evalCase is one program of eval-fixpoint's set with its database and
// the oracle's answer.
type evalCase struct {
	name     string
	why      string
	src, ics string
	facts    []ast.Atom
	oracle   func(facts []ast.Atom) []string
	want     digest

	orig, prog *ast.Program // as written; as the optimizer emits it
	db         *eval.DB
}

func chainFacts(n int) []ast.Atom {
	out := make([]ast.Atom, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ast.NewAtom("edge", num(i), num(i+1)))
	}
	return out
}

func trendyFacts(people, items int) []ast.Atom {
	var out []ast.Atom
	for i := 0; i < people; i++ {
		out = append(out, ast.NewAtom("trendy", num(i)))
		for j := 0; j < items; j++ {
			out = append(out, ast.NewAtom("likes", num(i), num(1000+i*100+j)))
		}
	}
	return out
}

func closureOf(preds ...string) func([]ast.Atom) []string {
	return func(facts []ast.Atom) []string { return renderPairs(graphOf(facts, preds...).closure(nil)) }
}

// evalSet returns eval-fixpoint's programs. Sizes are what fits some
// fifty passes into a ten-second run on two cores.
func evalSet() []*evalCase {
	return []*evalCase{
		{name: "tc-chain", why: "chain(200): hundreds of rounds, small deltas: barrier/merge-bound",
			src: tcRightSrc, ics: tcICs, facts: chainFacts(200),
			oracle: func([]ast.Atom) []string { // closed form: every i < j
				var out []string
				for i := 0; i <= 200; i++ {
					for j := i + 1; j <= 200; j++ {
						out = append(out, renderPair(pair{i, j}))
					}
				}
				return out
			}},
		{name: "tc-random", why: "random(150,450): few rounds, duplicate-heavy: dedup/probe-bound",
			src: tcRightSrc, facts: workload.RandomGraph(150, 450, 7), oracle: closureOf("edge")},
		{name: "goodpath-threshold", why: "section 3: order atoms pushed into the recursion prune the low chain",
			src: goodPathSrc, ics: goodPathICs, facts: workload.GoodPath(400, 100, 40),
			oracle: func([]ast.Atom) []string { return []string{renderPair(pair{100, 140})} }},
		{name: "ab-comb", why: "figure 1: a-after-b joins pruned from the query tree",
			src: figure1Src, ics: figure1ICs, facts: workload.ABComb(8, 14, 14), oracle: closureOf("a", "b")},
		{name: "trendy-full", why: "bounded recursion compiled to flat joins",
			src: trendySrc + "?- buys.\n", facts: trendyFacts(40, 15), oracle: trendyClosedForm},
	}
}

// build parses, optimizes and loads one case: the part of set-up a
// user of the library pays.
func (c *evalCase) build(ctx context.Context) error {
	var err error
	if c.orig, err = sqo.ParseProgram(c.src); err != nil {
		return err
	}
	ics, err := sqo.ParseICs(c.ics)
	if err != nil {
		return err
	}
	res, err := sqo.OptimizeCtx(ctx, c.orig, ics, sqo.DefaultOptions())
	if err != nil {
		return err
	}
	c.prog, c.db = res.Program, sqo.NewDBFrom(c.facts)
	return nil
}

func renderTuples(tuples []eval.Tuple) []string {
	out := make([]string, len(tuples))
	for i, t := range tuples {
		out[i] = t.String()
	}
	return out
}

// check compares an answer with the oracle's digest: count and
// multiset hash always, the SHA-256 of the sorted tuples when full.
func (c *evalCase) check(tuples []eval.Tuple, full bool) error {
	got := digestOf(renderTuples(tuples), full)
	if got.count != c.want.count || got.sum != c.want.sum || (full && got.sha != c.want.sha) {
		return fmt.Errorf("%s: %d tuples (hash %x), oracle %d (hash %x)", c.name, got.count, got.sum, c.want.count, c.want.sum)
	}
	return nil
}

// passStats collects one timed stretch of a library workload.
type passStats struct {
	lat     map[string][]float64 // per case, ms
	passes  []float64            // summed wall of the operations of each pass, s
	correct int
	wall    float64
	cal     calibrator // sampled after every pass
}

func (ps *passStats) add(name string, d time.Duration) {
	if ps.lat == nil {
		ps.lat = map[string][]float64{}
	}
	ps.lat[name] = append(ps.lat[name], float64(d)/1e6)
}

// report sets the end-to-end metrics a library workload shares with
// the serving ones and prints one row per program.
//
// Every pass does the same work, so what differs between passes is the
// host and the garbage collector, and both only ever add time: a
// program's latency is the lower quartile over its passes, and a pass's
// wall likewise. The percentiles are then taken over the programs — what
// the middle program and the slow ones cost — and not over the pooled
// operations, where several programs of nearly the same cost sit around
// the median and the weather decides which of them it lands on.
// Everything is divided by the host factor (calibrate.go).
func (ps *passStats) report(out *runOutput, wallMetric string, names []string) {
	f := ps.cal.factor()
	progs := make([]float64, 0, len(names))
	for _, name := range names {
		progs = append(progs, percentile(sortedCopy(ps.lat[name]), 25))
	}
	sort.Float64s(progs)
	wall := percentile(sortedCopy(ps.passes), 25)
	out.set("ops_per_s", float64(len(names))/wall*f)
	out.set("query_p50_ms", percentile(progs, 50)/f)
	out.set("query_p95_ms", percentile(progs, 95)/f)
	out.set(wallMetric, wall/f)
	out.set("host.slowdown", f)
	out.notef("timed %.2f s: %d passes, %d operations, %d correct; host factor %.3f (%d kernel samples)",
		ps.wall, len(ps.passes), len(names)*len(ps.passes), ps.correct, f, len(ps.cal.ms))
	out.notef("as measured, lower quartile over passes: pass %.4f s; programs p50 %.3f p95 %.3f ms; median pass %.4f s",
		wall, percentile(progs, 50), percentile(progs, 95), median(ps.passes))
	for _, name := range names {
		l := sortedCopy(ps.lat[name])
		out.notef("  %-22s n=%-4d lower quartile %9.3f ms  median %9.3f ms", name, len(l), percentile(l, 25), percentile(l, 50))
	}
}

// timeSetUps runs setUp setupReps times (once in a traced run) and
// reports the median, at nominal host speed, as setup_s.
func timeSetUps(out *runOutput, cfg runConfig, what string, setUp func() error) error {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var took []float64
	var cal calibrator
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if err := setUp(); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
		cal.sample(refSetupReps)
	}
	out.set("setup_s", median(took)/cal.factor())
	out.notef("set-up (%s) %d times: %.3f s each (median %.3f, host factor %.3f)", what, reps, took, median(took), cal.factor())
	return nil
}

// timePasses repeats pass for the run's seconds (half of them in a
// traced run, which has its replay to do as well), at least minPasses
// times, and samples the calibration kernel after every pass.
func timePasses(cfg runConfig, pass func(*passStats)) *passStats {
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	ps := &passStats{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for len(ps.passes) < minPasses || time.Now().Before(deadline) {
		pass(ps)
		ps.cal.sample(refReps)
	}
	ps.wall = time.Since(start).Seconds()
	return ps
}

func ownRSS(out *runOutput) error {
	rss, err := peakRSSMB(os.Getpid())
	out.set("peak_rss_mb", rss)
	return err
}

func runEvalFixpoint(ctx context.Context, cfg runConfig) (*runOutput, error) {
	out := newRunOutput()
	cases := evalSet()
	var names []string
	h := sha256.New()
	for _, c := range cases {
		c.want = digestOf(c.oracle(c.facts), true)
		names = append(names, c.name)
		fmt.Fprintf(h, "%s\n%s\n%s\n%s\n", c.name, c.src, c.ics, factsSource(c.facts))
	}
	out.opsSHA = hex.EncodeToString(h.Sum(nil))
	out.notef("%s: %d programs, in-process, sha256 of the inputs %s", wEvalFixpoint, len(cases), out.opsSHA)
	opts := sqo.DefaultEvalOptions()
	rng := rand.New(rand.NewSource(cfg.seed))

	// pass evaluates every program once, in a seed-shuffled order.
	pass := func(ps *passStats, query func(c *evalCase) ([]eval.Tuple, error), full bool) {
		var sum time.Duration
		for _, i := range rng.Perm(len(cases)) {
			c := cases[i]
			t0 := time.Now()
			tuples, err := query(c)
			d := time.Since(t0)
			sum += d
			out.attempted++
			if err == nil {
				err = c.check(tuples, full)
			}
			if err != nil {
				out.fail("%v", err)
				continue
			}
			if ps != nil {
				ps.add(c.name, d)
				ps.correct++
			}
		}
		if ps != nil {
			ps.passes = append(ps.passes, sum.Seconds())
		}
	}
	product := func(c *evalCase) ([]eval.Tuple, error) {
		tuples, _, err := sqo.QueryCtx(ctx, c.prog, c.db, opts)
		return tuples, err
	}

	err := timeSetUps(out, cfg, "parse, optimize, load, one pass checked by SHA-256", func() error {
		for _, c := range cases {
			if err := c.build(ctx); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
		pass(nil, product, true)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cases {
		out.notef("  %-22s %6d tuples sha256 %.16s  %s", c.name, c.want.count, c.want.sha, c.why)
	}

	ps := timePasses(cfg, func(ps *passStats) { pass(ps, product, false) })
	ps.report(out, "eval_wall_s", names)
	if err := ownRSS(out); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}

	// Traced: the same passes through shadowQuery, alternately without
	// and with a tracer.
	tr := newTracer()
	var agg shadowAgg
	var plainNS, tracedNS time.Duration
	shadowPass := func(t *tracer, into *time.Duration, sh *shadow) {
		pass(nil, func(c *evalCase) ([]eval.Tuple, error) {
			t0 := time.Now()
			defer func() { *into += time.Since(t0) }()
			defer t.start("op")()
			tuples, _, err := sh.eval(ctx, c.prog, c.db, opts)
			return tuples, err
		}, false)
	}
	plain, traced := &shadow{}, &shadow{tr: tr}
	for i := 0; i < tracedPasses; i++ {
		shadowPass(nil, &plainNS, plain)
		tr.setOp(i)
		shadowPass(tr, &tracedNS, traced)
	}
	agg = traced.agg
	l := layersOf(tr.spans)
	n := float64(tracedPasses * len(cases))
	evalNS, total := l.ns["eval.fixpoint"]+l.ns["eval.query"], l.ns["op"]+l.attributed()
	perPass(&agg, tracedPasses)
	setEvalMetrics(out, agg, evalNS/tracedPasses, float64(len(cases)))
	out.set("bounded.rewrite_us_per_op", l.us("bounded.rewrite")/n)
	out.set("bounded.applied", float64(agg.elimApplied))
	out.set("magic.applied", float64(agg.magicApplied))
	fixed, err := evalFixedCost(ctx, cases[0].db)
	if err != nil {
		return nil, err
	}
	out.set("eval.fixed_cost_us", fixed)
	var origDerived int64
	for _, c := range cases {
		_, stats, err := sqo.QueryCtx(ctx, c.orig, c.db, opts)
		if err != nil {
			return nil, err
		}
		origDerived += stats.TuplesDerived
	}
	out.set("qtree.derived_ratio", float64(agg.derived)/float64(origDerived))
	out.set("trace.overhead_share", float64(tracedNS-plainNS)/float64(plainNS))
	out.set("trace.attributed_share", float64(l.attributed())/float64(total))
	out.notef("traced %d passes: %.3f ms/op untraced, %.3f traced; eval is %.1f%% of the traced time",
		tracedPasses, float64(plainNS)/1e6/n, float64(tracedNS)/1e6/n, 100*float64(evalNS)/float64(total))
	noteLayers(out, l)
	return out, writeTrace(out, tr, cfg.outDir, wEvalFixpoint)
}

// perPass turns totals over several identical passes into one pass's.
func perPass(a *shadowAgg, passes int64) {
	for _, v := range []*int64{&a.evals, &a.derived, &a.probes, &a.firings, &a.rounds, &a.plans, &a.planNS,
		&a.magicApplied, &a.elimApplied, &a.goalNodes, &a.ruleNodes, &a.rulesOut, &a.lintFindings, &a.respBytes} {
		*v /= passes
	}
	a.allocObjects /= uint64(passes)
	a.allocBytes /= uint64(passes)
}

// setEvalMetrics reports the engine's work and unit costs. evalNS is
// the self time of the fixpoint spans that did the work in a.
func setEvalMetrics(out *runOutput, a shadowAgg, evalNS int64, ops float64) {
	out.set("eval.tuples_derived", float64(a.derived))
	out.set("eval.join_probes", float64(a.probes))
	out.set("eval.rule_firings", float64(a.firings))
	out.set("eval.rounds", float64(a.rounds))
	out.set("eval.plans_compiled", float64(a.plans))
	out.set("eval.peak_materialized", float64(a.peakMaterialized))
	if a.evals == 0 {
		return
	}
	out.set("eval.wall_ms_per_op", float64(evalNS)/1e6/ops)
	out.set("eval.plan_ns_share", float64(a.planNS)/float64(evalNS))
	if a.derived > 0 {
		out.set("eval.ns_per_tuple", float64(evalNS)/float64(a.derived))
		out.set("eval.allocs_per_tuple", float64(a.allocObjects)/float64(a.derived))
		out.set("eval.bytes_per_tuple", float64(a.allocBytes)/float64(a.derived))
	}
	if a.probes > 0 {
		out.set("eval.ns_per_probe", float64(evalNS)/float64(a.probes))
	}
}

// noteLayers prints each layer's share of the attributed time.
func noteLayers(out *runOutput, l layerTimes) {
	layers := map[string]int64{}
	var total int64
	for name, v := range l.ns {
		if name == "op" {
			continue
		}
		layer, _, _ := strings.Cut(name, ".")
		layers[layer] += v
		total += v
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	for _, l := range names {
		out.notef("  layer %-8s %10.3f ms self  %5.1f%%", l, float64(layers[l])/1e6, 100*float64(layers[l])/float64(total))
	}
	spanNames := make([]string, 0, len(l.ns))
	for name := range l.ns {
		spanNames = append(spanNames, name)
	}
	sort.Strings(spanNames)
	for _, name := range spanNames {
		out.notef("    span %-20s calls %-6d self %10.3f ms", name, l.calls[name], float64(l.ns[name])/1e6)
	}
}

func writeTrace(out *runOutput, tr *tracer, dir, workload string) error {
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	out.notef("%d spans written to %s", len(tr.spans), path)
	return nil
}

// --- optimize-cold ------------------------------------------------------

// optCase is one program of optimize-cold's set: source, a small
// database satisfying its constraints for the equivalence check, and —
// once validated — the SHA-256 of everything the compile produced.
type optCase struct {
	name     string
	src, ics string
	facts    []ast.Atom
	pin      []string // expected canonical rules, when pinned
	want     string
}

// figure1Pinned is the paper's rewritten program for Figure 1: the six
// rules s1..s6 over the three specializations of p, plus one wrapper
// per root, in canonicalRules form.
var figure1Pinned = []string{
	"p(A0, A1) :- p_q0(A0, A1).",
	"p(A0, A1) :- p_q1(A0, A1).",
	"p(A0, A1) :- p_q2(A0, A1).",
	"p_q0(A0, A1) :- a(A0, A1).",
	"p_q0(A0, A1) :- a(A0, A2), p_q0(A2, A1).",
	"p_q1(A0, A1) :- b(A0, A1).",
	"p_q1(A0, A1) :- b(A0, A2), p_q1(A2, A1).",
	"p_q2(A0, A1) :- b(A0, A2), p_q0(A2, A1).",
	"p_q2(A0, A1) :- b(A0, A2), p_q2(A2, A1).",
}

func atoms(pred string, rows ...[]int) []ast.Atom {
	var out []ast.Atom
	for _, r := range rows {
		a := ast.Atom{Pred: pred}
		for _, v := range r {
			a.Args = append(a.Args, num(v))
		}
		out = append(out, a)
	}
	return out
}

// flavours is the Theorem 5.1 family: transitive closure over k edge
// flavours where flavour i+1 may never be followed by flavour i. Its
// database chains the flavours in the one order the constraints allow.
func flavours(k int) *optCase {
	c := &optCase{name: fmt.Sprintf("flavours-%d", k)}
	for i := 0; i < k; i++ {
		c.src += fmt.Sprintf("p(X, Y) :- e%d(X, Y).\np(X, Y) :- e%d(X, Z), p(Z, Y).\n", i, i)
		c.facts = append(c.facts, atoms(fmt.Sprintf("e%d", i), []int{2 * i, 2*i + 1}, []int{2*i + 1, 2*i + 2})...)
	}
	c.src += "?- p.\n"
	for i := 0; i+1 < k; i++ {
		c.ics += fmt.Sprintf(":- e%d(X, Y), e%d(Y, Z).\n", i+1, i)
	}
	return c
}

// optSet returns optimize-cold's programs: the paper's examples, the
// Theorem 5.1 family, the bounded program, and twenty random layered
// programs from fixed generator seeds.
func optSet() []*optCase {
	set := []*optCase{
		{name: "figure1", src: figure1Src, ics: figure1ICs, facts: workload.ABComb(2, 3, 3), pin: figure1Pinned},
		{name: "goodpath-thresholds", src: goodPathSrc, ics: goodPathICs, facts: workload.GoodPath(6, 100, 5)},
		{name: "funcdep", src: "conflict(E) :- manages(E, M1), manages(E, M2), M1 < M2.\n" +
			"boss(E, M) :- manages(E, M).\nboss(E, M) :- manages(E, X), boss(X, M).\n" +
			"top(E, M) :- boss(E, M), ceo(M).\n?- top(1, M).\n",
			ics:   ":- manages(E, M1), manages(E, M2), M1 != M2.\n",
			facts: append(atoms("manages", []int{1, 2}, []int{2, 3}, []int{3, 4}, []int{5, 3}), atoms("ceo", []int{4})...)},
		{name: "trendy", src: trendySrc + "?- buys(0, Y).\n",
			facts: append(atoms("trendy", []int{0}, []int{1}), atoms("likes", []int{0, 10}, []int{1, 11}, []int{2, 12})...)},
		flavours(2), flavours(3), flavours(4),
	}
	for s := int64(1); s <= 20; s++ {
		src, ics, facts := workload.RandomProgram(s)
		set = append(set, &optCase{name: fmt.Sprintf("random-%02d", s), src: src, ics: ics, facts: facts})
	}
	return set
}

// compiled is what one cold compile produces.
type compiled struct {
	res            *qtree.Outcome
	flat, demanded *ast.Program // after bounded.Rewrite / magic.Rewrite, when they applied
	findings       int
	text           string // the rendered response
}

var lintOpts = lint.Options{MagicEnabled: true, ElimEnabled: true}

// compileProduct is the timed pipeline: the product's own entry
// points, in the order a cold request pays for them.
func compileProduct(ctx context.Context, c *optCase) (*compiled, error) {
	u, err := sqo.Parse(c.src + c.ics)
	if err != nil {
		return nil, err
	}
	_ = server.CacheKey(u.Program, u.ICs, sqo.DefaultOptions())
	out := &compiled{}
	if out.res, err = sqo.OptimizeCtx(ctx, u.Program, u.ICs, sqo.DefaultOptions()); err != nil {
		return nil, err
	}
	prog := out.res.Program
	if b, err := bounded.Rewrite(prog, bounded.Options{}); err == nil {
		prog, out.flat = b.Program, b.Program
	} else if !errors.Is(err, bounded.ErrNotBounded) {
		return nil, err
	}
	if len(prog.Goal) > 0 {
		if m, err := magic.Rewrite(prog); err == nil {
			prog, out.demanded = m.Program, m.Program
		} else if !errors.Is(err, magic.ErrNotApplicable) {
			return nil, err
		}
	}
	prog, _ = magic.Unfold(prog)
	out.findings = len(sqo.Lint(ctx, u.Program, u.ICs, nil, lintOpts).Findings)
	out.text = sqo.FormatProgram(out.res.Program) + sqo.Explain(out.res) + sqo.FormatProgram(prog)
	return out, nil
}

// compileShadow is compileProduct with a span per layer call.
func compileShadow(tr *tracer, ctx context.Context, c *optCase, agg *shadowAgg, parsed *int64) (*compiled, error) {
	end := tr.start("parser.parse")
	u, err := parser.Parse(c.src + c.ics)
	end()
	if err != nil {
		return nil, err
	}
	*parsed += int64(len(c.src) + len(c.ics))
	end = tr.start("server.cachekey")
	_ = server.CacheKey(u.Program, u.ICs, qtree.DefaultOptions())
	end()
	out := &compiled{}
	if out.res, err = shadowOptimize(tr, ctx, u.Program, u.ICs, qtree.DefaultOptions()); err != nil {
		return nil, err
	}
	st := out.res.Tree.Stats()
	agg.goalNodes += int64(st.GoalNodes)
	agg.ruleNodes += int64(st.RuleNodes)
	agg.rulesOut += int64(len(out.res.Program.Rules))
	prog := out.res.Program
	end = tr.start("bounded.rewrite")
	b, err := bounded.Rewrite(prog, bounded.Options{})
	end()
	if err == nil {
		prog, out.flat = b.Program, b.Program
		agg.elimApplied++
	} else if !errors.Is(err, bounded.ErrNotBounded) {
		return nil, err
	}
	if len(prog.Goal) > 0 {
		end = tr.start("magic.rewrite")
		m, err := magic.Rewrite(prog)
		end()
		if err == nil {
			prog, out.demanded = m.Program, m.Program
			agg.magicApplied++
		} else if !errors.Is(err, magic.ErrNotApplicable) {
			return nil, err
		}
	}
	end = tr.start("magic.unfold")
	prog, _ = magic.Unfold(prog)
	end()
	end = tr.start("lint.run")
	out.findings = len(lint.Run(ctx, u.Program, u.ICs, nil, lintOpts).Findings)
	end()
	agg.lintFindings += int64(out.findings)
	end = tr.start("server.encode")
	out.text = sqo.FormatProgram(out.res.Program) + sqo.Explain(out.res) + sqo.FormatProgram(prog)
	end()
	agg.respBytes += int64(len(out.text))
	return out, nil
}

// validate checks a compile against the oracle: the pinned rules where
// there are any, and on the case's database the same answers from the
// program as written and from every rewritten form of it — all
// evaluated by naiveEval, never by the engine.
func (c *optCase) validate(got *compiled) error {
	if c.pin != nil {
		if rules := canonicalRules(got.res.Program); strings.Join(rules, "\n") != strings.Join(c.pin, "\n") {
			return fmt.Errorf("%s: rewritten rules are not the pinned ones:\n%s", c.name, strings.Join(rules, "\n"))
		}
	}
	orig, err := parser.ParseProgram(c.src)
	if err != nil {
		return err
	}
	want := strings.Join(naiveEval(orig, c.facts), " ")
	if want == "" {
		return fmt.Errorf("%s: the equivalence check is vacuous: the program has no answers on its database", c.name)
	}
	for form, p := range map[string]*ast.Program{"optimized": got.res.Program, "flattened": got.flat, "demanded": got.demanded} {
		if p == nil {
			continue
		}
		q := p.Clone()
		q.Goal = orig.Goal
		if have := strings.Join(naiveEval(q, c.facts), " "); have != want {
			return fmt.Errorf("%s: the %s program answers {%s}, the original {%s}", c.name, form, have, want)
		}
	}
	return nil
}

func textSHA(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func runOptimizeCold(ctx context.Context, cfg runConfig) (*runOutput, error) {
	out := newRunOutput()
	rng := rand.New(rand.NewSource(cfg.seed))
	var cases []*optCase
	var names []string

	// pass compiles every program once, in a seed-shuffled order.
	pass := func(ps *passStats, compile func(c *optCase) (*compiled, error), validate bool) {
		var sum time.Duration
		for _, i := range rng.Perm(len(cases)) {
			c := cases[i]
			t0 := time.Now()
			got, err := compile(c)
			d := time.Since(t0)
			sum += d
			out.attempted++
			switch {
			case err != nil:
			case validate:
				if err = c.validate(got); err == nil {
					c.want = textSHA(got.text)
				}
			case textSHA(got.text) != c.want:
				err = fmt.Errorf("%s: output differs from the validated one", c.name)
			}
			if err != nil {
				out.fail("%s: %v", c.name, err)
				continue
			}
			if ps != nil {
				ps.add(c.name, d)
				ps.correct++
			}
		}
		if ps != nil {
			ps.passes = append(ps.passes, sum.Seconds())
		}
	}
	product := func(c *optCase) (*compiled, error) { return compileProduct(ctx, c) }

	err := timeSetUps(out, cfg, "generate, compile once, validate against the oracle", func() error {
		cases = optSet()
		pass(nil, product, true)
		return nil
	})
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, c := range cases {
		names = append(names, c.name)
		fmt.Fprintf(h, "%s\n%s\n%s\n", c.name, c.src, c.ics)
	}
	out.opsSHA = hex.EncodeToString(h.Sum(nil))
	out.notef("%s: %d programs, in-process, sha256 of the inputs %s", wOptimizeCold, len(cases), out.opsSHA)

	ps := timePasses(cfg, func(ps *passStats) { pass(ps, product, false) })
	ps.report(out, "optimize_wall_s", names)
	if err := ownRSS(out); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}

	tr := newTracer()
	var agg, scratch shadowAgg
	var parsed, scratchParsed int64
	var plainNS, tracedNS time.Duration
	for i := 0; i < tracedPasses; i++ {
		pass(nil, func(c *optCase) (*compiled, error) {
			t0 := time.Now()
			defer func() { plainNS += time.Since(t0) }()
			return compileShadow(nil, ctx, c, &scratch, &scratchParsed)
		}, false)
		tr.setOp(i)
		pass(nil, func(c *optCase) (*compiled, error) {
			t0 := time.Now()
			defer func() { tracedNS += time.Since(t0) }()
			defer tr.start("op")()
			return compileShadow(tr, ctx, c, &agg, &parsed)
		}, false)
	}
	l := layersOf(tr.spans)
	n := float64(tracedPasses * len(cases))
	perPass(&agg, tracedPasses)
	setPipelineMetrics(out, l, agg, parsed, n)
	out.set("server.resp_bytes_per_op", float64(agg.respBytes)/float64(len(cases)))
	out.set("magic.unfold_us", l.perCall("magic.unfold"))
	out.set("trace.overhead_share", float64(tracedNS-plainNS)/float64(plainNS))
	out.set("trace.attributed_share", float64(l.attributed())/float64(l.ns["op"]+l.attributed()))
	out.notef("traced %d passes: %.3f ms/op untraced, %.3f traced", tracedPasses, float64(plainNS)/1e6/n, float64(tracedNS)/1e6/n)
	noteLayers(out, l)
	return out, writeTrace(out, tr, cfg.outDir, wOptimizeCold)
}

// setPipelineMetrics reports what the parse → cache key → optimize →
// rewrite → lint → encode path cost over ops traced operations, from
// the spans in l and the counts in a.
func setPipelineMetrics(out *runOutput, l layerTimes, a shadowAgg, parsedBytes int64, ops float64) {
	out.set("parser.parse_us_per_op", l.us("parser.parse")/ops)
	if ns := l.ns["parser.parse"]; ns > 0 {
		out.set("parser.bytes_per_s", float64(parsedBytes)/(float64(ns)/1e9))
	}
	out.set("server.cachekey_us_per_op", l.us("server.cachekey")/ops)
	out.set("server.encode_us_per_op", l.us("server.encode")/ops)
	out.set("server.resp_bytes_per_op", float64(a.respBytes)/ops)
	for metric, name := range optimizerSpans {
		out.set(metric, l.perCall(name))
	}
	out.set("qtree.goal_nodes", float64(a.goalNodes))
	out.set("qtree.rule_nodes", float64(a.ruleNodes))
	out.set("qtree.rules_out", float64(a.rulesOut))
	out.set("bounded.rewrite_us_per_op", l.us("bounded.rewrite")/ops)
	out.set("bounded.applied", float64(a.elimApplied))
	out.set("magic.rewrite_us_per_op", l.us("magic.rewrite")/ops)
	out.set("magic.applied", float64(a.magicApplied))
	out.set("lint.run_us_per_op", l.us("lint.run")/ops)
	out.set("lint.findings", float64(a.lintFindings))
}

// optimizerSpans maps the optimizer's per-pass metrics (µs per call)
// to the spans they come from.
var optimizerSpans = map[string]string{
	"rewrite.normalize_us": "rewrite.normalize", "rewrite.local_us": "rewrite.local",
	"rewrite.push_us": "rewrite.push", "rewrite.headeq_us": "rewrite.headeq",
	"adorn.specialize_us": "adorn.specialize", "adorn.bottomup_us": "adorn.bottomup",
	"qtree.build_us": "qtree.build", "qtree.prune_us": "qtree.prune", "qtree.extract_us": "qtree.extract",
}
