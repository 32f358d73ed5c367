package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	sqo "repro"
	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/eval"
	"repro/internal/lint"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/qtree"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/store"
)

// The shadow pipeline: the same calls into each layer's exported
// functions that the product makes, in the same order, made from here
// so that a span can be recorded around each one without editing the
// program. shadowOptimize mirrors qtree.OptimizeCtx, shadowQuery
// mirrors eval.QueryCtx, and the shadow type mirrors sqod's handlers
// (internal/server) for one dataset with one view. Tests pin each
// mirror to the function it mirrors; the traced run also compares the
// shadow's answers with the child's.

// shadowOptimize is qtree.OptimizeCtx with a span per pass.
func shadowOptimize(tr *tracer, ctx context.Context, p *ast.Program, ics []ast.IC, opts qtree.Options) (*qtree.Outcome, error) {
	end := tr.start("qtree.validate")
	err := p.Validate()
	if err == nil && p.Query == "" {
		err = errors.New("program has no query predicate")
	}
	if err == nil {
		err = p.ValidateICs(ics)
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("qtree: %w", err)
	}

	out := &qtree.Outcome{}
	cur := p.Clone()
	if opts.NormalizeOrder {
		end = tr.start("rewrite.normalize")
		cur = rewrite.NormalizeOrder(cur)
		end()
	}
	out.Pipeline.Normalized = cur
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.LocalRewrite {
		end = tr.start("rewrite.local")
		cur = rewrite.RewriteLocalPlanned(cur, rewrite.PlanICs(ics))
		end()
	}
	out.Pipeline.Local = cur
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.PushOrder {
		end = tr.start("rewrite.push")
		pushed, err := rewrite.PushOrder(cur)
		end()
		if err != nil {
			return nil, err
		}
		cur = pushed
	}
	out.Pipeline.Pushed = cur

	end = tr.start("rewrite.headeq")
	cur = rewrite.PropagateHeadEqualities(cur)
	end()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	end = tr.start("adorn.specialize")
	sp, err := adorn.Specialize(cur)
	end()
	if err != nil {
		return nil, err
	}
	out.Pipeline.Spec = sp
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	end = tr.start("adorn.bottomup")
	res, err := adorn.BottomUp(sp, ics)
	end()
	if err != nil {
		return nil, err
	}
	out.Warnings = res.Warnings
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	end = tr.start("qtree.build")
	tree := qtree.Build(res)
	end()
	end = tr.start("qtree.prune")
	tree.Prune()
	end()
	out.Tree = tree
	end = tr.start("qtree.extract")
	out.Program = tree.Extract()
	out.Satisfiable = tree.Satisfiable() && len(out.Program.RulesFor(out.Program.Query)) > 0
	end()
	if opts.PushOrder && out.Satisfiable {
		end = tr.start("rewrite.push")
		if pushed, err := rewrite.PushOrder(out.Program); err == nil {
			out.Program = pushed
		}
		end()
	}
	if len(p.Goal) > 0 {
		out.Program.Goal = append([]ast.Term(nil), p.Goal...)
	}
	return out, nil
}

// shadowQuery is eval.QueryCtx with a span per rewrite and one around
// the fixpoint.
func shadowQuery(tr *tracer, ctx context.Context, p *ast.Program, edb *eval.DB, opts eval.Options) ([]eval.Tuple, *eval.Stats, error) {
	defer tr.start("eval.query")() // self time: the goal filter
	prog := p
	elimApplied, elimChecked := false, 0
	if opts.Elim != eval.ElimOff && len(p.Rules) > 0 {
		end := tr.start("bounded.rewrite")
		res, err := bounded.Rewrite(p, bounded.Options{})
		end()
		if res != nil {
			elimChecked = len(res.Analyses)
		}
		switch {
		case err == nil:
			prog, elimApplied = res.Program, true
		case !errors.Is(err, bounded.ErrNotBounded):
			return nil, nil, err
		}
	}
	magicApplied := false
	if opts.Magic != eval.MagicOff && len(p.Goal) > 0 {
		end := tr.start("magic.rewrite")
		res, err := magic.Rewrite(prog)
		end()
		switch {
		case err == nil:
			prog, magicApplied = res.Program, true
		case !errors.Is(err, magic.ErrNotApplicable):
			return nil, nil, err
		}
	}
	if opts.Stream {
		end := tr.start("magic.unfold")
		prog, _ = magic.Unfold(prog)
		end()
	}
	end := tr.start("eval.fixpoint")
	idb, stats, err := eval.EvalCtx(ctx, prog, edb, opts)
	end()
	if err != nil {
		return nil, nil, err
	}
	stats.MagicApplied, stats.ElimApplied, stats.ElimChecked = magicApplied, elimApplied, elimChecked
	r := idb.Lookup(prog.Query)
	if r == nil {
		return nil, stats, nil
	}
	tuples := r.Tuples()
	if len(p.Goal) == 0 {
		return tuples, stats, nil
	}
	var out []eval.Tuple
	for _, t := range tuples {
		if p.MatchesGoal(t) {
			out = append(out, t)
		}
	}
	return out, stats, nil
}

// shadow mirrors one sqod process serving one dataset: the rewrite
// cache, the dataset's fact set and snapshot, one materialized view and
// (when durable) the store. It is driven single-threaded.
type shadow struct {
	tr     *tracer
	cache  *server.Cache
	st     *store.Store // nil when the child runs in memory
	facts  map[string]ast.Atom
	db     *sqo.DB
	view   *sqo.View
	parsed int64 // source bytes handed to the parser
	// walBase is the WAL's size when the replay began: what set-up and
	// warm-up wrote is not an update's cost.
	walBase int64
	agg     shadowAgg
}

// shadowAgg accumulates the counts the traced run reports.
type shadowAgg struct {
	evals                                           int64
	derived, probes, firings, rounds, plans, planNS int64
	peakMaterialized                                int64
	magicApplied, elimApplied                       int64
	goalNodes, ruleNodes, rulesOut                  int64
	allocObjects, allocBytes                        uint64
	updates, changed                                int64
	lintFindings                                    int64
	respBytes                                       int64
}

func newShadow(tr *tracer, st *store.Store) *shadow {
	return &shadow{tr: tr, cache: server.NewCache(128), st: st, facts: map[string]ast.Atom{}}
}

func (s *shadow) parseProgram(src, ics string) (*ast.Program, []ast.IC, error) {
	defer s.tr.start("parser.parse")()
	s.parsed += int64(len(src) + len(ics))
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return nil, nil, err
	}
	cs, err := parser.ParseICs(ics)
	return prog, cs, err
}

func (s *shadow) parseFacts(src string) ([]ast.Atom, error) {
	defer s.tr.start("parser.parse")()
	s.parsed += int64(len(src))
	return parser.ParseFacts(src)
}

func (s *shadow) cacheKey(p *ast.Program, ics []ast.IC, opts qtree.Options) string {
	defer s.tr.start("server.cachekey")()
	return server.CacheKey(p, ics, opts)
}

// optimizeCached mirrors Server.optimizeCached.
func (s *shadow) optimizeCached(ctx context.Context, src, icsSrc string) (*qtree.Outcome, bool, error) {
	prog, ics, err := s.parseProgram(src, icsSrc)
	if err != nil {
		return nil, false, err
	}
	opts := qtree.DefaultOptions()
	key := s.cacheKey(prog, ics, opts)
	defer s.tr.start("server.cache")()
	return s.cache.GetOrCompute(ctx, key, func() (*qtree.Outcome, error) {
		out, err := shadowOptimize(s.tr, ctx, prog, ics, opts)
		if err == nil {
			st := out.Tree.Stats()
			s.agg.goalNodes += int64(st.GoalNodes)
			s.agg.ruleNodes += int64(st.RuleNodes)
			s.agg.rulesOut += int64(len(out.Program.Rules))
		}
		return out, err
	})
}

// buildDB mirrors dataset.buildDB: a fresh snapshot in key order.
func (s *shadow) buildDB() {
	defer s.tr.start("server.snapshot")()
	keys := make([]string, 0, len(s.facts))
	for k := range s.facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	db := sqo.NewDB()
	for _, k := range keys {
		db.AddFact(s.facts[k])
	}
	s.db = db
}

// createDataset mirrors PUT /v1/datasets/{name} for a new name.
func (s *shadow) createDataset(src string) error {
	facts, err := s.parseFacts(src)
	if err != nil {
		return err
	}
	if s.st != nil {
		end := s.tr.start("store.append")
		err := s.st.AppendDatasetCreate(dsName, facts)
		end()
		if err != nil {
			return err
		}
	}
	for _, a := range facts {
		s.facts[a.String()] = a
	}
	s.buildDB()
	return nil
}

// createView mirrors POST /v1/datasets/{name}/views/{view}.
func (s *shadow) createView(ctx context.Context, src, icsSrc string) error {
	res, _, err := s.optimizeCached(ctx, src, icsSrc)
	if err != nil {
		return err
	}
	end := s.tr.start("incr.materialize")
	s.view, err = sqo.MaterializeCtx(ctx, res.Program, s.db, sqo.ViewOptions{Policy: sqo.PolicyGreedy})
	end()
	if err != nil {
		return err
	}
	if s.st != nil {
		end := s.tr.start("store.append")
		err = s.st.AppendViewRegister(dsName, store.ViewDef{Name: viewName, Program: src, ICs: icsSrc, Optimized: true})
		end()
	}
	return err
}

// queryMirror has the fields of the server's queryResponse, so the
// encode span serializes what sqod serializes.
type queryMirror struct {
	Query       string   `json:"query"`
	Answers     []string `json:"answers"`
	AnswerCount int      `json:"answer_count"`
	Satisfiable bool     `json:"satisfiable"`
	Optimized   bool     `json:"optimized"`
	CacheHit    bool     `json:"cache_hit"`
	JoinOrder   string   `json:"join_order"`
	Magic       bool     `json:"magic"`
	Elim        bool     `json:"elim"`
	Stats       struct {
		Rounds        int   `json:"rounds"`
		TuplesDerived int64 `json:"tuples_derived"`
		RuleFirings   int64 `json:"rule_firings"`
		JoinProbes    int64 `json:"join_probes"`
	} `json:"stats"`
	OptimizeMS float64 `json:"optimize_ms"`
	EvalMS     float64 `json:"eval_ms"`
}

// encode mirrors the tail of a handler: build the response value
// (rendering and sorting answers) and write it as indented JSON.
func (s *shadow) encode(build func() any) {
	defer s.tr.start("server.encode")()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(build())
	s.agg.respBytes += int64(buf.Len())
}

// query mirrors handleQuery for a request naming the dataset.
func (s *shadow) query(ctx context.Context, src, icsSrc string) (*queryMirror, error) {
	res, hit, err := s.optimizeCached(ctx, src, icsSrc)
	if err != nil {
		return nil, err
	}
	prog := res.Program
	elimApplied := false
	ekey := "elim\x00" + s.cacheKey(prog, nil, qtree.Options{})
	end := s.tr.start("server.cache")
	eres, _, err := s.cache.GetOrCompute(ctx, ekey, func() (*qtree.Outcome, error) {
		defer s.tr.start("bounded.rewrite")()
		r, err := bounded.Rewrite(prog, bounded.Options{})
		if errors.Is(err, bounded.ErrNotBounded) {
			return &qtree.Outcome{}, nil
		}
		if err != nil {
			return nil, err
		}
		return &qtree.Outcome{Program: r.Program, Satisfiable: true}, nil
	})
	end()
	if err != nil {
		return nil, err
	}
	if eres.Program != nil {
		prog, elimApplied = eres.Program, true
		s.agg.elimApplied++
	}
	opts := eval.DefaultOptions()
	opts.Elim = eval.ElimOff
	tuples, stats, err := s.eval(ctx, prog, s.db, opts)
	if err != nil {
		return nil, err
	}
	m := &queryMirror{Query: prog.Query, Satisfiable: res.Satisfiable, Optimized: true, CacheHit: hit,
		JoinOrder: string(eval.PolicyGreedy), Magic: stats.MagicApplied, Elim: elimApplied}
	s.encode(func() any {
		m.Answers = make([]string, len(tuples))
		for i, t := range tuples {
			m.Answers[i] = t.String()
		}
		sort.Strings(m.Answers)
		m.AnswerCount = len(m.Answers)
		m.Stats.Rounds, m.Stats.TuplesDerived = stats.Iterations, stats.TuplesDerived
		m.Stats.RuleFirings, m.Stats.JoinProbes = stats.RuleFirings, stats.JoinProbes
		return m
	})
	return m, nil
}

// eval runs shadowQuery and folds its statistics and allocation
// counts into the aggregate.
func (s *shadow) eval(ctx context.Context, p *ast.Program, db *eval.DB, opts eval.Options) ([]eval.Tuple, *eval.Stats, error) {
	objs, bytes := heapAllocs()
	tuples, stats, err := shadowQuery(s.tr, ctx, p, db, opts)
	if err != nil {
		return nil, nil, err
	}
	objs2, bytes2 := heapAllocs()
	a := &s.agg
	a.allocObjects += objs2 - objs
	a.allocBytes += bytes2 - bytes
	a.evals++
	a.derived += stats.TuplesDerived
	a.probes += stats.JoinProbes
	a.firings += stats.RuleFirings
	a.rounds += int64(stats.Iterations)
	a.plans += stats.PlansCompiled
	a.planNS += stats.PlanNanos
	a.peakMaterialized = max(a.peakMaterialized, stats.PeakMaterialized)
	if stats.MagicApplied {
		a.magicApplied++
	}
	if stats.ElimApplied {
		a.elimApplied++
	}
	return tuples, stats, nil
}

// update mirrors updateDataset: WAL append, fact set, snapshot, view.
// It returns the number of query-predicate tuples the view gained plus
// lost.
func (s *shadow) update(ctx context.Context, o op) (added, removed int, err error) {
	_, _, body := o.request()
	facts, err := s.parseFacts(body)
	if err != nil {
		return 0, 0, err
	}
	var adds, dels []ast.Atom
	if o.Kind == opAdd {
		adds = facts
	} else {
		dels = facts
	}
	if s.st != nil {
		end := s.tr.start("store.append")
		err := s.st.AppendFacts(dsName, adds, dels)
		end()
		if err != nil {
			return 0, 0, err
		}
	}
	for _, a := range dels {
		delete(s.facts, a.String())
	}
	for _, a := range adds {
		s.facts[a.String()] = a
	}
	s.buildDB()
	name := "incr.apply_add"
	switch {
	case o.Cascade && o.Kind == opRetract:
		name = "incr.apply_cascade"
	case o.Cascade:
		name = "incr.apply_restore"
	case o.Kind == opRetract:
		name = "incr.apply_retract"
	}
	end := s.tr.start(name)
	ch, err := s.view.ApplyCtx(ctx, adds, dels)
	end()
	if err != nil {
		return 0, 0, err
	}
	s.agg.updates++
	s.agg.changed += int64(len(ch.Added) + len(ch.Removed))
	s.encode(func() any {
		return map[string]any{"facts_added": len(adds), "facts_removed": len(dels),
			"views": []map[string]any{{"name": viewName, "answers_added": len(ch.Added), "answers_removed": len(ch.Removed)}}}
	})
	return len(ch.Added), len(ch.Removed), nil
}

// viewRead mirrors GET /v1/datasets/{name}/views/{view}.
func (s *shadow) viewRead() ([]string, error) {
	end := s.tr.start("incr.answers")
	tuples, err := s.view.Answers()
	end()
	if err != nil {
		return nil, err
	}
	var answers []string
	s.encode(func() any {
		answers = make([]string, len(tuples))
		for i, t := range tuples {
			answers[i] = t.String()
		}
		return map[string]any{"name": viewName, "dataset": dsName, "query": s.view.Program().Query,
			"answers": answers, "answer_count": len(answers), "optimized": true, "stats": s.view.Stats()}
	})
	return answers, nil
}

// lintRun mirrors POST /v1/lint and returns the number of findings.
func (s *shadow) lintRun(ctx context.Context, src, icsSrc string) (int, error) {
	prog, ics, err := s.parseProgram(src, icsSrc)
	if err != nil {
		return 0, err
	}
	end := s.tr.start("lint.run")
	rep := lint.Run(ctx, prog, ics, nil, lint.Options{MagicEnabled: true, ElimEnabled: true})
	end()
	s.agg.lintFindings += int64(len(rep.Findings))
	s.encode(func() any { return rep })
	return len(rep.Findings), nil
}
