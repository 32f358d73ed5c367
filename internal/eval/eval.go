package eval

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/magic"
)

// ErrBudget is wrapped by the error returned when evaluation exceeds
// Options.MaxTuples; distinguish it from cancellation with errors.Is.
var ErrBudget = errors.New("derived-tuple budget exceeded")

// Stats reports instrumentation collected during evaluation. All
// counters are deterministic for a fixed program, database, and
// options: an evaluation is one goroutine running its tasks in a fixed
// order (see runRound).
type Stats struct {
	// Iterations is the number of fixpoint rounds executed.
	Iterations int
	// RuleFirings counts complete rule instantiations that produced a
	// (possibly duplicate) head fact.
	RuleFirings int64
	// TuplesDerived counts distinct new IDB tuples.
	TuplesDerived int64
	// JoinProbes counts candidate tuples examined while extending
	// partial rule instantiations — the dominant cost of evaluation
	// and the quantity semantic query optimization reduces.
	JoinProbes int64
	// rounds records what RoundDeltas reports, flat.
	rounds roundLog

	// The fields below are planning diagnostics, not evaluation
	// semantics. They are excluded from Equal: they describe how the
	// answers were reached (join orders, rewrites, footprint), not what
	// was derived. All except PlanNanos remain deterministic for a fixed
	// program, database, and options.

	// PlanNanos is wall-clock time this evaluation spent choosing join
	// orders and compiling plans, in nanoseconds. Measurement noise by
	// nature; never assert on it.
	PlanNanos int64
	// PlansCompiled counts the join plans this evaluation compiled,
	// including the one a mid-task reorder compiles. A Prepared query's
	// first run over a base compiles every plan, as any evaluation does;
	// a later run over the same base reuses them and compiles only its
	// magic seed's.
	PlansCompiled int64
	// AdaptiveReorders counts mid-task join reorders: a step's observed
	// fan-out exceeded the exact fan-out it was ordered by more than
	// tenfold, and the rest of the task ran in a new order.
	AdaptiveReorders int64
	// MagicApplied reports whether the query was evaluated through the
	// magic-sets demand rewrite (Query/QueryCtx with a bound goal and
	// Options.Magic not off). Excluded from Equal like the other
	// diagnostics: the magic-rewritten fixpoint legitimately differs
	// from bottom-up in every counter — that difference is the point —
	// while the answers stay identical.
	MagicApplied bool
	// PeakMaterialized is the largest total observed at any round
	// barrier of IDB tuples plus the tuples in the live semi-naive delta
	// window. The window is a range of IDB rows, not a copy; its size
	// stays in the total so that recorded baselines remain comparable.
	// This is the memory-footprint metric the P8 experiment tracks:
	// demand pruning and streaming unfolding lower it while leaving
	// answers unchanged. Deterministic for a fixed program, database,
	// and options, but excluded from Equal because it is a footprint
	// diagnostic, not evaluation semantics.
	PeakMaterialized int64
	// ElimApplied reports whether the query was evaluated through the
	// bounded-recursion elimination rewrite (Query/QueryCtx with
	// Options.Elim not off and at least one predicate proven bounded,
	// its fixpoint compiled into a flat union of conjunctive queries).
	// Excluded from Equal like MagicApplied: the flattened program
	// legitimately differs from the fixpoint in every counter while
	// the answers stay identical.
	ElimApplied bool
	// ElimChecked counts the self-recursive predicates the boundedness
	// analyzer examined before evaluation (zero when Options.Elim is
	// off or the program has no self-recursion). An analysis
	// diagnostic, excluded from Equal for the same reason as
	// ElimApplied.
	ElimChecked int
	// EDBRowsInterned counts the EDB tuples this evaluation looked up in
	// an interner building the DB's interned base: all of them when it
	// built the base from scratch (the first evaluation of a DB), those
	// the predecessor's base did not hold when it derived the base from it
	// (the first evaluation after a mutation or a Replace — 0 after a
	// retraction), 0 when it reused one. The useful-outcome ratio of the
	// serving path is TuplesDerived over this. Excluded from Equal: it
	// depends on what was evaluated over the DB before, not on the
	// program, database, and options.
	EDBRowsInterned int64
}

// roundLog is the per-round record behind Stats.RoundDeltas, one flat
// slice for the whole evaluation: counts[r*len(preds)+k] tuples of
// preds[k] were merged in round r, for the n rounds that completed.
type roundLog struct {
	preds  []string // the IDB predicates by layout id; shared with the layout
	n      int
	counts []int64
}

// RoundDeltas records, for each fixpoint round, how many new tuples
// were merged into each IDB relation that round (relation name → tuple
// count; relations with no new tuples are omitted, a round that derived
// nothing records an empty map). len(RoundDeltas()) == Iterations after
// a completed run, and the contents are deterministic like every other
// counter. This is what makes incremental-maintenance work
// (internal/incr) comparable with full runs in sqobench and /metrics.
// The maps are built on every call from the evaluation's flat record.
func (s *Stats) RoundDeltas() []map[string]int64 {
	if s.rounds.n == 0 {
		return nil
	}
	out := make([]map[string]int64, s.rounds.n)
	for r := range out {
		out[r] = s.rounds.round(r)
	}
	return out
}

// round returns round r's deltas as a map.
func (l *roundLog) round(r int) map[string]int64 {
	m := map[string]int64{}
	for k, c := range l.counts[r*len(l.preds) : (r+1)*len(l.preds)] {
		if c > 0 {
			m[l.preds[k]] = c
		}
	}
	return m
}

// statsEqualExcluded names the Stats fields deliberately NOT compared
// by Equal: planning, rewrite, and footprint diagnostics that
// legitimately differ across rewrites while the answers stay
// identical. The statsequal analyzer
// (internal/analyzers/statsequal, run via go vet -vettool in CI) fails
// the build when a new Stats field is neither compared in Equal nor
// listed here — adding a field means making that choice explicitly.
var statsEqualExcluded = map[string]bool{
	"PlanNanos":        true,
	"PlansCompiled":    true,
	"AdaptiveReorders": true,
	"MagicApplied":     true,
	"PeakMaterialized": true,
	"ElimApplied":      true,
	"ElimChecked":      true,
	"EDBRowsInterned":  true,
}

// Equal reports whether two Stats are identical, including the
// per-round delta sizes (RoundDeltas), compared by relation name. The
// diagnostics listed in statsEqualExcluded are deliberately not
// compared — see their field docs.
func (s *Stats) Equal(o *Stats) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Iterations != o.Iterations || s.RuleFirings != o.RuleFirings ||
		s.TuplesDerived != o.TuplesDerived || s.JoinProbes != o.JoinProbes ||
		s.rounds.n != o.rounds.n {
		return false
	}
	for r := 0; r < s.rounds.n; r++ {
		if !maps.Equal(s.rounds.round(r), o.rounds.round(r)) {
			return false
		}
	}
	return true
}

// MagicMode controls whether Query/QueryCtx apply the magic-sets
// demand rewrite before evaluation. The rewrite only ever changes how
// answers are computed, never the answers: when it does not apply
// (unbound goal, query predicate without rules, adornment blowup),
// evaluation silently falls back to bottom-up.
type MagicMode string

const (
	// MagicAuto (the zero value) applies the rewrite whenever the goal
	// binds at least one argument.
	MagicAuto MagicMode = "auto"
	// MagicOff disables the rewrite; goals are evaluated bottom-up and
	// filtered afterwards.
	MagicOff MagicMode = "off"
)

// ParseMagicMode parses a magic mode name; the empty string and "on"
// mean MagicAuto ("on" is its older spelling: the rewrite falls back to
// bottom-up when inapplicable either way).
func ParseMagicMode(s string) (MagicMode, error) {
	switch m := MagicMode(s); m {
	case "", "on":
		return MagicAuto, nil
	case MagicAuto, MagicOff:
		return m, nil
	}
	return "", fmt.Errorf("eval: unknown magic mode %q (want auto, on, or off)", s)
}

// ElimMode controls whether Query/QueryCtx run the boundedness
// analysis (internal/bounded) and compile provably bounded recursion
// into flat unions of conjunctive queries before evaluation. Like the
// magic rewrite, elimination only ever changes how answers are
// computed, never the answers: when no predicate is provably bounded
// (the honest outcome for genuine recursion such as transitive
// closure), evaluation silently falls back to the fixpoint.
type ElimMode string

const (
	// ElimAuto (the zero value) analyzes every self-recursive
	// predicate under the default budgets and rewrites the bounded
	// ones. The structural pre-checks make this near-free on programs
	// with no self-recursion.
	ElimAuto ElimMode = "auto"
	// ElimOff disables the analysis; recursion is always evaluated as
	// a fixpoint.
	ElimOff ElimMode = "off"
)

// ParseElimMode parses an elimination mode name; the empty string and
// "on" mean ElimAuto ("on" is its older spelling: elimination falls back
// when nothing is provably bounded either way).
func ParseElimMode(s string) (ElimMode, error) {
	switch m := ElimMode(s); m {
	case "", "on":
		return ElimAuto, nil
	case ElimAuto, ElimOff:
		return m, nil
	}
	return "", fmt.Errorf("eval: unknown elim mode %q (want auto, on, or off)", s)
}

// PolicyGreedy names the engine's join order, which is not a choice:
// the greedy bound-position order with ties between EDB subgoals broken
// by exact relation length (plan.go), tasks with an empty subgoal
// skipped (join.go), and at most one mid-task reorder from exact
// fan-outs (compiled.go).
//
// Deprecated: nothing reads it. It stays, untyped, so that code written
// against the retired join-order knob keeps compiling.
const PolicyGreedy = "greedy"

// Options configures evaluation. The zero value is the default: every
// evaluation is semi-naive, and no option selects a schedule.
type Options struct {
	// MaxTuples aborts evaluation when the total number of derived IDB
	// tuples exceeds the bound (0 = unlimited). Guards runaway tests.
	MaxTuples int64
	// Magic controls the magic-sets demand rewrite in Query/QueryCtx
	// (the empty string means MagicAuto). EvalCtx ignores it: its
	// contract is the full IDB of the given program, which demand
	// pruning deliberately does not compute.
	Magic MagicMode
	// Elim controls bounded-recursion elimination in Query/QueryCtx
	// (the empty string means ElimAuto): predicates whose recursion is
	// statically provably bounded are compiled into flat unions of
	// conjunctive queries before evaluation, ahead of the magic
	// rewrite. EvalCtx ignores it for the same reason it ignores
	// Magic: its contract is the given program, evaluated as written.
	Elim ElimMode
	// Stream enables the streaming unfolding rewrite in Query/QueryCtx:
	// non-recursive IDB predicates consumed by exactly one subgoal are
	// inlined into their consumer, so their tuples are never
	// materialized. Applied after the magic rewrite when both are on.
	Stream bool
}

// DefaultOptions are the options used by Eval: the zero Options.
func DefaultOptions() Options {
	return Options{}
}

// validateModes rejects unknown magic and elim modes.
func (o Options) validateModes() error {
	if _, err := ParseMagicMode(string(o.Magic)); err != nil {
		return err
	}
	if _, err := ParseElimMode(string(o.Elim)); err != nil {
		return err
	}
	return nil
}

// effectiveMagic resolves the empty string to MagicAuto.
func (o Options) effectiveMagic() MagicMode {
	if o.Magic == "" {
		return MagicAuto
	}
	return o.Magic
}

// effectiveElim resolves the empty string to ElimAuto.
func (o Options) effectiveElim() ElimMode {
	if o.Elim == "" {
		return ElimAuto
	}
	return o.Elim
}

// Eval evaluates the program bottom-up over the given EDB and returns
// a database containing the IDB relations (the EDB is not modified and
// not included in the result).
func Eval(p *ast.Program, edb *DB) (*DB, *Stats, error) {
	return EvalWith(p, edb, DefaultOptions())
}

// EvalWith evaluates with explicit options.
func EvalWith(p *ast.Program, edb *DB, opts Options) (*DB, *Stats, error) {
	return EvalCtx(context.Background(), p, edb, opts)
}

// EvalCtx is EvalWith under a context: cancellation (or deadline
// expiry) stops the fixpoint promptly — it is checked at every round
// barrier and periodically inside long join scans — and the context's
// error is returned. Results and Stats are deterministic whenever
// evaluation runs to completion.
func EvalCtx(ctx context.Context, p *ast.Program, edb *DB, opts Options) (*DB, *Stats, error) {
	ev, err := evalCompiled(ctx, p, edb, opts, nil)
	if err != nil {
		return nil, nil, err
	}
	return ev.publicIDB(), ev.stats, nil
}

// Query evaluates the program and returns the tuples of its query
// predicate.
func Query(p *ast.Program, edb *DB) ([]Tuple, *Stats, error) {
	return QueryWith(p, edb, DefaultOptions())
}

// QueryWith is Query with explicit engine options.
func QueryWith(p *ast.Program, edb *DB, opts Options) ([]Tuple, *Stats, error) {
	return QueryCtx(context.Background(), p, edb, opts)
}

// QueryCtx is QueryWith under a context; see EvalCtx for the
// cancellation contract.
//
// When the program carries a goal (`?- pred(t1, ..., tn).`), QueryCtx
// is goal-directed: under Options.Magic auto/on a goal with at least
// one bound argument is evaluated through the magic-sets rewrite
// (internal/magic), which computes only the part of the fixpoint the
// goal's bindings demand; when the rewrite is inapplicable — or under
// MagicOff — the program is evaluated bottom-up. Either way the
// returned tuples are exactly the query-relation tuples matching the
// goal (constants equal at their positions, repeated goal variables
// equal across theirs), so the two paths are interchangeable
// answer-wise; Stats.MagicApplied records which one ran.
//
// Under Options.Elim auto/on the boundedness analysis runs first:
// self-recursive predicates proven bounded (internal/bounded) are
// compiled into flat unions of conjunctive queries, and the magic and
// streaming rewrites then work on the flattened program — elimination
// is what makes a bounded predicate eligible for streaming unfolding
// and gives the magic rewrite non-recursive rules to prune. When
// nothing is provably bounded (ErrNotBounded), the fixpoint is
// evaluated as written; Stats.ElimApplied/ElimChecked record the
// outcome.
//
// Before either, a query predicate whose only rule renames another IDB
// predicate — the optimizer's one-root union, p(X1, …, Xn) :-
// p_q0(X1, …, Xn) — is folded away (foldRenaming): the query relation
// is the root's relation, not a copy of it, so Stats count each answer
// once and RoundDeltas name the query predicate, not the root. The
// answers and their order are those of evaluating the rule as written.
func QueryCtx(ctx context.Context, p *ast.Program, edb *DB, opts Options) ([]Tuple, *Stats, error) {
	res, stats, err := QueryResultCtx(ctx, p, edb, opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Tuples(), stats, nil
}

// QueryResultCtx is QueryCtx for a caller that wants the answers written
// out rather than handed over: the same evaluation, returning the
// answers as a Result — interned rows, converted to tuples only on
// request — which is all of the evaluation that stays reachable. With a
// one-root renaming folded (see QueryCtx) those rows are the root's own
// row store.
func QueryResultCtx(ctx context.Context, p *ast.Program, edb *DB, opts Options) (*Result, *Stats, error) {
	pq, err := Prepare(p, opts)
	if err != nil {
		return nil, nil, err
	}
	return pq.Run(ctx, edb, p.Goal, opts)
}

// Prepared is a query's rewrite pipeline — fold, elim, magic — run once
// for its rules and its goal's binding pattern, and run per goal: the
// passes read the goal's shape, never its constants, so `?- path(17, Y).`
// and `?- path(18, Y).` prepare to one value. It is safe to run
// concurrently.
//
// It also keeps what a run needs that depends only on the rewritten
// program and the database's interned base: the program validated and
// numbered once (layout), and the plans compiled over the last base it
// ran on (a planSlot, swapped atomically when a run meets another
// base). The magic seed is the one rule whose constants change per
// goal, so a run over that base compiles the seed's one-row plan and
// nothing else. The slot names its base by number and keeps nothing of
// it, so a Prepared held in a cache pins no database: only its plans and
// the rule constants the base lacked.
type Prepared struct {
	prog        *ast.Program  // the rewritten program; magic.Program when the magic rewrite applied
	magic       *magic.Result // non-nil when the magic rewrite applied
	pattern     magic.BindingPattern
	elimApplied bool
	elimChecked int
	lay         *layout // prog's; nil when prog is invalid
	layErr      error
	slot        atomic.Pointer[planSlot]
}

// Prepare runs QueryCtx's rewrites on p for p's goal binding pattern:
// the one-root renaming fold, then — under opts.Elim and opts.Magic —
// bounded-recursion elimination and the magic-sets rewrite, each falling
// back silently when it does not apply. Only opts.Elim and opts.Magic
// are read.
func Prepare(p *ast.Program, opts Options) (*Prepared, error) {
	if err := opts.validateModes(); err != nil {
		return nil, err
	}
	pq := &Prepared{prog: foldRenaming(p), pattern: magic.GoalPattern(p.Goal)}
	if opts.effectiveElim() != ElimOff && len(pq.prog.Rules) > 0 {
		res, err := bounded.Rewrite(pq.prog, bounded.Options{})
		if res != nil {
			pq.elimChecked = len(res.Analyses)
		}
		switch {
		case err == nil:
			pq.prog, pq.elimApplied = res.Program, true
		case errors.Is(err, bounded.ErrNotBounded):
			// Nothing provably bounded: evaluate the fixpoint as written.
		default:
			return nil, err
		}
	}
	if opts.effectiveMagic() != MagicOff && len(p.Goal) > 0 {
		res, err := magic.Rewrite(pq.prog)
		switch {
		case err == nil:
			pq.prog, pq.magic = res.Program, res
		case errors.Is(err, magic.ErrNotApplicable):
			// Fall back to bottom-up evaluation of the original program.
		default:
			return nil, err
		}
	}
	// A run reports an invalid program, as evaluating it would.
	pq.lay, pq.layErr = newLayout(pq.prog)
	return pq, nil
}

// Run evaluates the prepared query for goal, which must have the binding
// pattern of the goal Prepare saw: it binds the magic seed to goal's
// constants, unfolds under opts.Stream — after binding, since unfolding
// can inline the seed into a rule body — evaluates, and returns the
// query relation's rows that match goal. opts.Elim and opts.Magic were
// Prepare's to read; Run ignores them.
//
// A run over the interned base the kept plans were compiled for
// compiles only the magic seed's plan; a run over another base compiles
// every plan and keeps them instead. Under opts.Stream a run compiles
// every plan and keeps none: unfolding the bound program can inline the
// seed's constants into any rule.
func (pq *Prepared) Run(ctx context.Context, edb *DB, goal []ast.Term, opts Options) (*Result, *Stats, error) {
	return pq.run(ctx, edb, goal, opts, nil)
}

// run is Run recording provenance steps into prov when non-nil.
func (pq *Prepared) run(ctx context.Context, edb *DB, goal []ast.Term, opts Options, prov *Provenance) (*Result, *Stats, error) {
	if pat := magic.GoalPattern(goal); pat != pq.pattern {
		return nil, nil, fmt.Errorf("eval: goal pattern %q, prepared for %q", pat, pq.pattern)
	}
	var ev *cEvaluator
	var err error
	if opts.Stream {
		prog := pq.prog
		if pq.magic != nil {
			prog = pq.magic.Bind(goal)
		}
		prog, _ = magic.Unfold(prog)
		ev, err = evalCompiled(ctx, prog, edb, opts, prov)
	} else {
		ev, err = pq.runSlot(ctx, edb, goal, opts, prov)
	}
	if err != nil {
		return nil, nil, err
	}
	ev.stats.MagicApplied = pq.magic != nil
	ev.stats.ElimApplied = pq.elimApplied
	ev.stats.ElimChecked = pq.elimChecked
	// Restrict to the goal on both paths: bottom-up computes the whole
	// relation, and the magic-rewritten relation can hold tuples for
	// bindings demanded recursively beyond the goal's own constants.
	// Only the query relation's matching rows leave the evaluation.
	return ev.answers(pq.prog.Query, goal), ev.stats, nil
}

// runSlot evaluates the prepared program at goal over the plans its slot
// holds for edb's base, compiling them into a new slot first when the
// slot holds another base's (or none). With the magic rewrite applied,
// the seed — rule 0 — is compiled for goal alone, into the run's private
// overlay, and is the only plan the run does not share.
func (pq *Prepared) runSlot(ctx context.Context, edb *DB, goal []ast.Term, opts Options, prov *Provenance) (*cEvaluator, error) {
	if pq.layErr != nil {
		return nil, pq.layErr
	}
	ev, err := newEvaluator(ctx, pq.lay, opts, prov)
	if err != nil {
		return nil, err
	}
	seed := -1
	if pq.magic != nil {
		seed = pq.lay.planIdx(0, -1)
	}
	base := ev.base(edb)
	s := pq.slot.Load()
	if s == nil || s.baseID != base.id {
		s = ev.compileSlot(base, seed)
		pq.slot.Store(s)
	}
	ev.use(s, base)
	if seed >= 0 {
		start := time.Now()
		ev.plans = slices.Clone(ev.plans)
		ev.plans[seed] = compilePlan(ev.in, pq.lay, pq.magic.Seed(goal), 0, -1, false, nil)
		ev.stats.PlansCompiled++
		ev.stats.PlanNanos += time.Since(start).Nanoseconds()
	}
	return ev, ev.run()
}

// foldRenaming evaluates the optimizer's one-root union as what it is, a
// renaming. The rewritten program defines the query predicate p as the
// union of the query forest's roots (p :- p_q0. p :- p_q1. …); with one
// root that union is p(X1, …, Xn) :- q(X1, …, Xn), and as a rule it
// derives, hashes, stores and counts every answer twice. While p's only
// rule is such a renaming — one positive atom, nothing negated, no order
// atom, distinct variables in the same positions on both sides — and
// q ≠ p is an IDB predicate with rules of its own, the rule is dropped
// and q renamed p in every rule. It is sound because in the least model
// p and q are the same relation, so one name for both changes no relation
// anything reads; the answers are q's rows in q's order, which is the
// order the renaming rule copied them in. Every rule for q must have
// arity n, so that an arity mismatch between the two stays an error.
// Stream, elim and magic then see one predicate where there were two:
// run after magic, the fold would find p(X…) :- m_p(…), q(X…) instead
// of a renaming, and the wrapper would have been adorned, seeded and
// evaluated as a predicate of its own. The caller's program is never
// written: when nothing folds it is returned as it is, allocation-free.
func foldRenaming(p *ast.Program) *ast.Program {
	for {
		at := -1
		for i, r := range p.Rules {
			if r.Head.Pred == p.Query {
				if at >= 0 {
					return p // a union of two or more roots
				}
				at = i
			}
		}
		if at < 0 {
			return p
		}
		r := p.Rules[at]
		if len(r.Pos) != 1 || len(r.Neg) > 0 || len(r.Cmp) > 0 ||
			r.Pos[0].Pred == p.Query || len(r.Pos[0].Args) != len(r.Head.Args) {
			return p
		}
		for i, t := range r.Head.Args {
			if !t.IsVar() || r.Pos[0].Args[i] != t {
				return p
			}
			for _, u := range r.Head.Args[:i] {
				if u == t {
					return p
				}
			}
		}
		q, hasRule := r.Pos[0].Pred, false
		for _, s := range p.Rules {
			if s.Head.Pred == q {
				if len(s.Head.Args) != len(r.Head.Args) {
					return p
				}
				hasRule = true
			}
		}
		if !hasRule {
			return p // q is EDB: p is a copy of stored facts
		}
		rename := func(as []ast.Atom) []ast.Atom {
			var out []ast.Atom
			for j, a := range as {
				if a.Pred == q {
					if out == nil {
						out = append([]ast.Atom(nil), as...)
					}
					out[j].Pred = p.Query
				}
			}
			if out == nil {
				return as
			}
			return out
		}
		folded := &ast.Program{Query: p.Query, Goal: p.Goal, Rules: make([]ast.Rule, 0, len(p.Rules)-1)}
		for i, s := range p.Rules {
			if i == at {
				continue
			}
			if s.Head.Pred == q {
				s.Head.Pred = p.Query
			}
			s.Pos, s.Neg = rename(s.Pos), rename(s.Neg)
			folded.Rules = append(folded.Rules, s)
		}
		p = folded
	}
}
