// Package lint is a semantic static analyzer for datalog programs
// with integrity constraints. It layers the decision procedures of the
// paper — conjunctive-query satisfiability (Theorem 5.2), program
// emptiness via initialization rules (Proposition 5.2), and query
// containment (Proposition 5.1) — into a multi-rule linter with
// structured diagnostics:
//
//   - L1 unsat-body: a rule whose body is unsatisfiable w.r.t. the
//     constraints can never fire.
//   - L2 empty-predicate / dead-rule / unreachable-rule: IDB predicates
//     provably empty on every consistent database, rules that depend on
//     them, and rules the query predicate cannot reach.
//   - L3 subsumed-rule: a rule contained in a sibling rule for the same
//     predicate is redundant.
//   - L4 guardrails: constraint features that push the underlying
//     questions into semi-decidable or undecidable territory
//     (Theorems 5.3 and 5.4).
//   - L5 hygiene: arity mismatches, unsafe rules, IDB predicates in
//     constraint bodies, singleton variables, unused EDB predicates.
//   - L6 goal-directed: a query goal that binds arguments (a point
//     query like '?- path(a, Y).') to which the magic-sets rewrite
//     does not apply materializes the whole relation; the check cites
//     the goal's adornment.
//   - L7 bounded-recursion: the boundedness analyzer's verdict on each
//     self-recursive predicate. A bounded one the engine compiles
//     away, so only the other two verdicts are reported:
//     not-bounded-within-budget and unknown (both Info).
//
// Every semantic verdict the linter relies on is three-valued; budget
// exhaustion surfaces as an explicit Info finding, never as a false
// positive.
package lint

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/emptiness"
)

// Severity classifies a finding.
type Severity int

const (
	// Info findings are advisory: notes about undecidable territory or
	// exhausted budgets.
	Info Severity = iota
	// Warning findings identify code that is almost certainly
	// unintended but does not change query answers when kept.
	Warning
	// Error findings identify defects: rules that can never fire,
	// empty queries, or programs the optimizer would reject.
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the lower-case severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = Error
	case "warning":
		*s = Warning
	case "info":
		*s = Info
	default:
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	return nil
}

// Finding is one diagnostic: a check family (L1..L7), a stable rule
// identifier, a severity, a source position, and a message.
type Finding struct {
	Check    string   `json:"check"`
	ID       string   `json:"id"`
	Severity Severity `json:"severity"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
	// Ref is a second position the finding cites, when it has one (an
	// arity mismatch's first sighting); Message ends with it as
	// "line:col", which WriteText re-renders in the file it falls in.
	Ref ast.Pos `json:"-"`
}

// Pos returns the finding's source position.
func (f Finding) Pos() ast.Pos { return ast.At(f.Line, f.Col) }

// Report is the result of a lint run.
type Report struct {
	Findings []Finding `json:"findings"`
	Errors   int       `json:"errors"`
	Warnings int       `json:"warnings"`
	Infos    int       `json:"infos"`
}

// HasErrors reports whether any Error-severity finding was emitted.
func (r *Report) HasErrors() bool { return r.Errors > 0 }

// Options is the linter's options struct. It sets nothing: the
// semantic checks run under fixed budgets (emptiness's own for L1 and
// L2, the constants below for L3).
type Options struct {
	// Deprecated: read by nothing. Every caller evaluates with the
	// magic-sets rewrite wherever it applies, so L6 reports only goals
	// it does not apply to.
	MagicEnabled bool
	// Deprecated: read by nothing. Every caller evaluates with
	// bounded-recursion elimination, so L7 reports no bounded
	// predicate.
	ElimEnabled bool
}

// The L3 containment budget: containment is NP-complete in the body
// size, so only rules with at most maxSubsumptionAtoms body atoms, and
// only head predicates with at most maxSubsumptionRules rules, are
// compared pairwise.
const (
	maxSubsumptionAtoms = 8
	maxSubsumptionRules = 16
)

// satBudget bounds L1's satisfiability decisions: the zero Options,
// emptiness's own budgets. The fuzz test lowers it.
var satBudget emptiness.Options

// Run lints the program against its integrity constraints and optional
// EDB facts. The context bounds the semantic checks: cancellation
// degrades verdicts to Unknown (reported as Info), never to a wrong
// answer. Run always returns a report; it has no error mode.
func Run(ctx context.Context, p *ast.Program, ics []ast.IC, facts []ast.Atom, _ Options) *Report {
	if ctx == nil {
		ctx = context.Background()
	}
	l := &linter{
		ctx:   ctx,
		p:     p,
		ics:   ics,
		facts: facts,
		idb:   p.IDB(),
		rep:   &Report{Findings: []Finding{}},
	}
	structuralOK := l.hygiene()
	l.guardrails()
	// Semantic checks assume consistent arities, safe rules, and
	// constraints free of IDB predicates; skip them when the structure
	// is broken rather than report nonsense on top of the real defect.
	if structuralOK {
		l.unsatRules()
		l.emptyAndDead()
		l.subsumedRules()
		l.goalDirected()
		l.boundedRecursion()
	}
	if ctx.Err() != nil {
		l.add(Finding{Check: "lint", ID: "aborted", Severity: Info,
			Message: "lint budget exhausted before all checks completed; remaining verdicts are unknown"})
	}
	sort.SliceStable(l.rep.Findings, func(i, j int) bool {
		a, b := l.rep.Findings[i], l.rep.Findings[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.ID < b.ID
	})
	for _, f := range l.rep.Findings {
		switch f.Severity {
		case Error:
			l.rep.Errors++
		case Warning:
			l.rep.Warnings++
		default:
			l.rep.Infos++
		}
	}
	return l.rep
}

type linter struct {
	ctx   context.Context
	p     *ast.Program
	ics   []ast.IC
	facts []ast.Atom
	idb   map[string]bool
	rep   *Report

	// sat holds the L1 verdict per rule index, consumed by L2.
	sat []emptiness.Verdict
	// flagged marks rule indices already reported as deletable
	// (unsat-body, dead-rule, or subsumed-rule), so later checks
	// neither re-flag them nor use them as subsumption witnesses.
	flagged map[int]bool
}

func (l *linter) add(f Finding) { l.rep.Findings = append(l.rep.Findings, f) }

func (l *linter) addAt(check, id string, sev Severity, at ast.Pos, msg string) {
	l.add(Finding{Check: check, ID: id, Severity: sev, Line: at.Line, Col: at.Col, Message: msg})
}
