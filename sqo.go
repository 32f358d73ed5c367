// Package sqo is a semantic query optimizer for datalog programs — a
// from-scratch reproduction of
//
//	Alon Y. Levy and Yehoshua Sagiv,
//	"Semantic Query Optimization in Datalog Programs",
//	PODS 1995.
//
// Given a datalog program (function-free Horn rules with optional
// dense-order comparison atoms and negated EDB subgoals) and a set of
// integrity constraints (rules with empty heads), the optimizer
// rewrites the program so that it completely incorporates the
// constraints: every goal node of every symbolic derivation tree of
// the rewritten program is query reachable on some database satisfying
// the constraints. Sequences of rule applications that the constraints
// doom to emptiness are compiled away, selections implied by the
// constraints are pushed to the earliest point of evaluation, and
// residues of partially-applicable constraints are attached as extra
// comparison filters (Theorems 4.1 and 4.2 of the paper).
//
// The package also exposes the surrounding theory of Section 5:
// query-predicate satisfiability, program emptiness (Proposition 5.2),
// conjunctive-query and program/UCQ containment with both directions
// of the Proposition 5.1 reduction, and the two-counter-machine
// construction behind the Theorem 5.4 undecidability result.
//
// # Quick start
//
//	unit, _ := sqo.Parse(`
//	    path(X, Y) :- step(X, Y).
//	    path(X, Y) :- step(X, Z), path(Z, Y).
//	    goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
//	    ?- goodPath.
//	`)
//	ics, _ := sqo.ParseICs(`:- startPoint(X), endPoint(Y), Y <= X.`)
//	res, _ := sqo.Optimize(unit.Program, ics)
//	fmt.Println(res.Program) // the rewritten program
//
// See the examples/ directory for complete runnable programs.
package sqo

import (
	"context"
	"fmt"
	"io"

	"repro/internal/ast"
	"repro/internal/bounded"
	"repro/internal/contain"
	"repro/internal/emptiness"
	"repro/internal/eval"
	"repro/internal/incr"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/qtree"
	"repro/internal/residue"
	"repro/internal/tcm"
)

// Program is a datalog program with a distinguished query predicate.
type Program = ast.Program

// Rule is a single Horn rule (also used to represent conjunctive
// queries: head = distinguished variables, body = the conjunction).
type Rule = ast.Rule

// IC is an integrity constraint — a rule with an empty head.
type IC = ast.IC

// Atom is a relational atom.
type Atom = ast.Atom

// Term is a variable or constant.
type Term = ast.Term

// DB is an extensional or intensional database.
type DB = eval.DB

// Tuple is one row of a relation: constant terms.
type Tuple = eval.Tuple

// Stats reports evaluation instrumentation (rounds, rule firings,
// join probes, derived tuples).
type Stats = eval.Stats

// Unit is a parsed source text: program, constraints, and ground facts.
type Unit = parser.Unit

// Result is the outcome of semantic query optimization.
type Result = qtree.Outcome

// Options selects optimizer passes (ablation support); use
// DefaultOptions for the paper's full pipeline.
type Options = qtree.Options

// Machine is a two-counter machine (Theorem 5.4 apparatus).
type Machine = tcm.Machine

// Parse parses a source text containing rules, integrity constraints,
// ground facts, and an optional query declaration, in any order.
func Parse(src string) (*Unit, error) { return parser.Parse(src) }

// ParseProgram parses rules plus an optional query declaration.
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// ParseICs parses integrity constraints.
func ParseICs(src string) ([]IC, error) { return parser.ParseICs(src) }

// ParseFacts parses ground facts.
func ParseFacts(src string) ([]Atom, error) { return parser.ParseFacts(src) }

// MustParseProgram is ParseProgram, panicking on error.
func MustParseProgram(src string) *Program { return parser.MustParseProgram(src) }

// MustParseICs is ParseICs, panicking on error.
func MustParseICs(src string) []IC { return parser.MustParseICs(src) }

// MustParseFacts is ParseFacts, panicking on error.
func MustParseFacts(src string) []Atom { return parser.MustParseFacts(src) }

// DefaultOptions enables the full optimization pipeline.
func DefaultOptions() Options { return qtree.DefaultOptions() }

// Optimize rewrites the program to completely incorporate the
// integrity constraints (the paper's main algorithm: local-atom
// rewriting, selection pushing, bottom-up adornments, top-down query
// tree, pruning, and residue attachment).
func Optimize(p *Program, ics []IC) (*Result, error) {
	return qtree.Optimize(p, ics)
}

// OptimizeWith is Optimize with explicit pass selection.
func OptimizeWith(p *Program, ics []IC, opts Options) (*Result, error) {
	return qtree.OptimizeWith(p, ics, opts)
}

// OptimizeCtx is OptimizeWith under a context: cancellation or
// deadline expiry aborts the rewrite at the next pass boundary and
// returns the context's error.
func OptimizeCtx(ctx context.Context, p *Program, ics []IC, opts Options) (*Result, error) {
	return qtree.OptimizeCtx(ctx, p, ics, opts)
}

// BaselineOptimize applies the per-rule residue method of [CGM88] —
// the prior art the paper improves on; used for comparison.
func BaselineOptimize(p *Program, ics []IC) *Program {
	return residue.Optimize(p, ics)
}

// NewDB returns an empty database.
func NewDB() *DB { return eval.NewDB() }

// NewDBFrom returns a database holding the given ground facts.
func NewDBFrom(facts []Atom) *DB {
	db := eval.NewDB()
	db.AddFacts(facts)
	return db
}

// Eval evaluates the program bottom-up (semi-naive, hash-indexed, on
// the calling goroutine) over the extensional database, returning the
// IDB relations. Results and Stats are deterministic.
func Eval(p *Program, edb *DB) (*DB, *Stats, error) { return eval.Eval(p, edb) }

// EvalOptions configures the evaluation engine: the derived-tuple
// budget (MaxTuples) and the goal-directed rewrites of Query/QueryCtx (Elim, Magic, Stream). The
// join order is not an option: rules are ordered greedily by bound
// positions, ties between stored relations going to the shorter one; a
// rule with an empty subgoal costs nothing; and a running rule may
// reorder itself once when a join fans out tenfold past what the
// relations' exact key counts predict. An evaluation runs on the
// goroutine that calls it; callers that want several cores run several
// evaluations, which may share one DB.
type EvalOptions = eval.Options

// PolicyGreedy names the engine's one join order.
//
// Deprecated: nothing reads it; the join order is not an option. It
// stays so that code written against the retired join-order knob keeps
// compiling.
const PolicyGreedy = eval.PolicyGreedy

// MagicMode controls the magic-sets demand rewrite applied by
// Query/QueryWith/QueryCtx when the program's query carries a goal
// with bound arguments (written `?- pred(a, Y).`): MagicAuto (the
// default) rewrites such queries for goal-directed evaluation, falling
// back to bottom-up when the rewrite is inapplicable; MagicOff always
// evaluates bottom-up. Answers are identical in every mode.
type MagicMode = eval.MagicMode

// Magic modes accepted by EvalOptions.Magic.
const (
	MagicAuto = eval.MagicAuto
	MagicOff  = eval.MagicOff
)

// ParseMagicMode parses a magic mode name ("auto" or "off"; the empty
// string and "on" mean auto), for wiring flags and config knobs to
// EvalOptions.Magic.
func ParseMagicMode(s string) (MagicMode, error) {
	return eval.ParseMagicMode(s)
}

// ElimMode controls the bounded-recursion elimination rewrite applied
// by Query/QueryWith/QueryCtx ahead of the magic-sets rewrite:
// ElimAuto (the default) runs the boundedness analyzer and, for
// predicates whose recursion is provably bounded, replaces the fixpoint
// with the equivalent flat union of conjunctive queries, falling back to
// fixpoint evaluation when no predicate is provably bounded; ElimOff
// skips the analysis entirely. Answers are identical in every mode.
type ElimMode = eval.ElimMode

// Elim modes accepted by EvalOptions.Elim.
const (
	ElimAuto = eval.ElimAuto
	ElimOff  = eval.ElimOff
)

// ParseElimMode parses an elim mode name ("auto" or "off"; the empty
// string and "on" mean auto), for wiring flags and config knobs to
// EvalOptions.Elim.
func ParseElimMode(s string) (ElimMode, error) {
	return eval.ParseElimMode(s)
}

// ErrNotBounded is returned by EliminateRecursion when no
// self-recursive predicate of the program is provably bounded within
// the analyzer's budgets; test with errors.Is. Query evaluation never
// surfaces it — QueryCtx falls back to the fixpoint silently, exactly
// like an inapplicable magic rewrite.
var ErrNotBounded = bounded.ErrNotBounded

// EliminateRecursion runs the boundedness analyzer on p's
// self-recursive predicates and, for every predicate whose k-fold
// unfolding is contained in its (k-1)-fold unfolding (checked with the
// CQ-containment procedure under the analyzer's default budgets),
// returns an equivalent program with that predicate's fixpoint
// compiled into a flat union of conjunctive queries. The input is not
// mutated. Returns ErrNotBounded when nothing is eliminable — callers
// that want the fallback applied automatically should set
// EvalOptions.Elim instead of calling this directly.
func EliminateRecursion(p *Program) (*Program, error) {
	res, err := bounded.Rewrite(p, bounded.Options{})
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

// DefaultEvalOptions returns the engine defaults used by Eval, which
// are the zero EvalOptions: every evaluation is semi-naive.
func DefaultEvalOptions() EvalOptions { return eval.DefaultOptions() }

// EvalWith evaluates with explicit engine options.
func EvalWith(p *Program, edb *DB, opts EvalOptions) (*DB, *Stats, error) {
	return eval.EvalWith(p, edb, opts)
}

// EvalCtx is EvalWith under a context: cancellation (or deadline
// expiry) stops the fixpoint promptly — it is checked at every round
// barrier and periodically inside long join scans — returning the
// context's error. Use it to bound per-request evaluation time or to
// stop work when a client disconnects.
func EvalCtx(ctx context.Context, p *Program, edb *DB, opts EvalOptions) (*DB, *Stats, error) {
	return eval.EvalCtx(ctx, p, edb, opts)
}

// ErrBudget is wrapped by evaluation errors caused by exceeding
// EvalOptions.MaxTuples; test with errors.Is to distinguish budget
// exhaustion from cancellation.
var ErrBudget = eval.ErrBudget

// Query evaluates the program and returns the query predicate's tuples.
func Query(p *Program, edb *DB) ([]eval.Tuple, *Stats, error) { return eval.Query(p, edb) }

// QueryWith is Query with explicit engine options.
func QueryWith(p *Program, edb *DB, opts EvalOptions) ([]eval.Tuple, *Stats, error) {
	return eval.QueryWith(p, edb, opts)
}

// QueryCtx is QueryWith under a context; see EvalCtx for the
// cancellation contract.
//
// Query, QueryWith, QueryCtx and QueryResultCtx evaluate an optimized
// program's one-root union — `p(X, Y) :- p_q0(X, Y).`, the only rule
// of the query predicate — as the renaming it is: the query relation is
// the root's relation, so every answer is derived once, not twice.
// Sound because p and p_q0 are the same relation in the least model;
// done before the magic rewrite, which would otherwise adorn and seed
// the renaming as a predicate of its own. Answers and their order are
// those of evaluating the rule as written; Stats count no copy (one
// probe, one firing and one derived tuple fewer per answer than the
// rule would cost) and RoundDeltas name the query predicate, not the
// root. The optimizer's output, Explain, EvalCtx, EvalProv and views
// keep the paper's form: they return or maintain every IDB relation by
// name.
func QueryCtx(ctx context.Context, p *Program, edb *DB, opts EvalOptions) ([]eval.Tuple, *Stats, error) {
	return eval.QueryCtx(ctx, p, edb, opts)
}

// QueryResult is a query's answers while they are still the engine's
// interned rows: Len, Tuples (converted when called) and Ordered, which
// walks them in AnswerOrder with every distinct constant rendered once.
// It is immutable and holds nothing of the evaluation but the query
// relation's rows and their interner (see eval.Result).
type QueryResult = eval.Result

// AnswerOrder is an order of a QueryResult's answers: ByString, the
// order of Tuple.String, or ByKey, the order of Tuple.Key.
type AnswerOrder = eval.Order

var (
	ByString = eval.ByString
	ByKey    = eval.ByKey
)

// QueryResultCtx is QueryCtx returning a QueryResult instead of tuples,
// for callers that write the answers out rather than compute on them;
// with a one-root renaming folded (see QueryCtx) it holds the root's
// own rows.
func QueryResultCtx(ctx context.Context, p *Program, edb *DB, opts EvalOptions) (*QueryResult, *Stats, error) {
	return eval.QueryResultCtx(ctx, p, edb, opts)
}

// Prepared is a query whose rewrites have run: QueryResultCtx is Prepare
// followed by Run. The rewrites read the goal's binding pattern, not its
// constants, so one Prepared serves every goal of that pattern — Run
// binds the constants (see eval.Prepared).
type Prepared = eval.Prepared

// Prepare runs the rewrites QueryCtx applies to p (the one-root renaming
// fold, bounded-recursion elimination under opts.Elim, the magic-sets
// rewrite under opts.Magic) once, for p's goal binding pattern.
func Prepare(p *Program, opts EvalOptions) (*Prepared, error) { return eval.Prepare(p, opts) }

// Satisfiable decides whether the program's query predicate has any
// derivation on a database satisfying the constraints (Theorem 5.1's
// decision procedure, for the decidable constraint classes).
func Satisfiable(p *Program, ics []IC) (bool, error) {
	return contain.ProgramSatisfiable(p, ics)
}

// EmptinessOptions bounds the emptiness decision procedures.
type EmptinessOptions = emptiness.Options

// Empty decides program emptiness via Proposition 5.2 (all
// initialization rules unsatisfiable). decided is false when a chase
// budget was exhausted (the {¬}-constraint cases are only
// semi-decidable, Theorem 5.4).
func Empty(p *Program, ics []IC, opts EmptinessOptions) (empty, decided bool, err error) {
	return emptiness.Empty(p, ics, opts)
}

// CQContained decides containment of pure conjunctive queries by
// containment mapping.
func CQContained(q1, q2 Rule) (bool, error) { return contain.Contained(q1, q2) }

// CQContainedOrder decides CQ containment in the presence of order
// atoms, completely (via linearization case analysis).
func CQContainedOrder(q1, q2 Rule) (bool, error) {
	return contain.ContainedOrderComplete(q1, q2)
}

// ProgramContainedInUCQ decides containment of a datalog program in a
// union of conjunctive queries via the Proposition 5.1 reduction.
func ProgramContainedInUCQ(p *Program, ucq []Rule) (bool, error) {
	return contain.ProgramContainedInUCQ(p, ucq)
}

// EncodeTwoCounter builds the Theorem 5.4 reduction for a two-counter
// machine: a program whose query predicate (halt) is satisfiable with
// respect to the returned constraints iff the machine halts.
func EncodeTwoCounter(m *Machine) (*Program, []IC, error) {
	enc, err := tcm.Encode(m)
	if err != nil {
		return nil, nil, err
	}
	return enc.Program, enc.ICs, nil
}

// TwoCounterTraceDB materializes a bounded run of the machine as a
// concrete database over the encoding's vocabulary; the database
// satisfies the constraints exactly when the trace is a correct
// computation.
func TwoCounterTraceDB(m *Machine, maxSteps int) (facts []Atom, halted bool) {
	trace, h := m.Run(maxSteps)
	return tcm.TraceDB(m, trace), h
}

// Explain renders the optimizer's query forest (Figure 1 of the
// paper) as indented text.
func Explain(res *Result) string {
	if res == nil || res.Tree == nil {
		return "(no query tree)"
	}
	return res.Tree.Print()
}

// FormatProgram renders a program in source syntax including the
// query declaration (with its goal arguments, when present).
func FormatProgram(p *Program) string {
	s := p.String()
	if p.Query != "" {
		s += fmt.Sprintf("?- %s.\n", p.GoalAtom())
	}
	return s
}

// SatisfiabilityAsNonContainment builds the converse Proposition 5.1
// reduction: the query predicate of p is satisfiable w.r.t. ics iff
// the returned program is NOT contained in the returned union of
// conjunctive queries.
func SatisfiabilityAsNonContainment(p *Program, ics []IC) (*Program, []Rule, error) {
	return contain.SatisfiabilityAsNonContainment(p, ics)
}

// Derivation is a ground derivation tree for an answer (the ground
// counterpart of the paper's symbolic derivation trees).
type Derivation = eval.Derivation

// View is an incrementally maintained materialization of a program
// over a mutable extensional database. Build one with Materialize,
// then push fact-level updates through View.Apply; non-recursive
// predicates are maintained by counting, recursive strata by
// delete-rederive (DRed). Answers, derivation counts, and provenance
// stay identical to evaluating the program from scratch on the
// current database.
type View = incr.View

// ViewChanges reports the query-predicate tuples added and removed by
// one View.Apply call.
type ViewChanges = incr.Changes

// ViewOptions configures incremental maintenance.
type ViewOptions struct {
	// MaxTuples bounds the IDB tuples of the initial fixpoint and of any
	// full rebuild (0 = unlimited); exceeding it returns an error
	// wrapping ErrBudget.
	MaxTuples int64
	// Policy is ignored: a view orders its joins as the engine does.
	//
	// Deprecated: it stays so that code written against the retired
	// join-order knob keeps compiling.
	Policy string
}

// ViewStats reports incremental-maintenance instrumentation.
type ViewStats = incr.Stats

// Materialize evaluates the program once and returns a View that
// maintains the result under fact insertions and retractions.
func Materialize(p *Program, edb *DB, opts ViewOptions) (*View, error) {
	return MaterializeCtx(context.Background(), p, edb, opts)
}

// MaterializeCtx is Materialize under a context; the initial fixpoint
// honors the same cancellation contract as EvalCtx.
func MaterializeCtx(ctx context.Context, p *Program, edb *DB, opts ViewOptions) (*View, error) {
	return incr.MaterializeCtx(ctx, p, edb, incr.Options{MaxTuples: opts.MaxTuples})
}

// EvalProv evaluates the program while recording provenance, and
// returns a function that reconstructs the derivation tree of any
// derived fact.
func EvalProv(p *Program, edb *DB) (*DB, func(Atom) (*Derivation, error), *Stats, error) {
	idb, prov, stats, err := eval.EvalProv(p, edb)
	if err != nil {
		return nil, nil, nil, err
	}
	idbPreds := p.IDB()
	explain := func(fact Atom) (*Derivation, error) {
		return prov.Tree(fact, idbPreds, edb)
	}
	return idb, explain, stats, nil
}

// LintOptions bounds the semantic checks of the static analyzer.
type LintOptions = lint.Options

// LintReport is the structured result of a lint run.
type LintReport = lint.Report

// LintFinding is one diagnostic of a lint run.
type LintFinding = lint.Finding

// Lint runs the semantic static analyzer: unsatisfiable rule bodies,
// empty predicates and dead rules, subsumed rules, undecidability
// guardrails, and hygiene checks. The context bounds the semantic
// checks; cancellation degrades verdicts to Unknown, never to a wrong
// answer.
func Lint(ctx context.Context, p *Program, ics []IC, facts []Atom, opts LintOptions) *LintReport {
	return lint.Run(ctx, p, ics, facts, opts)
}

// WriteLintText renders a lint report in compiler-diagnostic text
// form, prefixing each finding with name when non-empty.
func WriteLintText(w io.Writer, name string, rep *LintReport) error {
	return lint.WriteText(w, name, rep)
}

// WriteLintJSON renders a lint report as deterministic indented JSON.
func WriteLintJSON(w io.Writer, rep *LintReport) error {
	return lint.WriteJSON(w, rep)
}
