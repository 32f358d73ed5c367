package qtree

import (
	"context"
	"fmt"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/rewrite"
)

// Options selects which passes of the full pipeline run; the zero
// value disables everything except the core algorithm (useful for
// ablations). Use DefaultOptions for the paper's full pipeline.
type Options struct {
	// NormalizeOrder runs the rule-local [LMSS93] normalization.
	NormalizeOrder bool
	// LocalRewrite runs the Section 4.2 local-atom case split.
	LocalRewrite bool
	// PushOrder runs the [LS92, LMSS93] selection-pushing pass.
	PushOrder bool
}

// DefaultOptions enables the full pipeline assumed by Theorem 4.2.
func DefaultOptions() Options {
	return Options{NormalizeOrder: true, LocalRewrite: true, PushOrder: true}
}

// Outcome is the result of semantic query optimization.
type Outcome struct {
	// Program is the rewritten program P′, equivalent to the input on
	// every database satisfying the constraints, in which every IDB
	// goal node of every symbolic derivation tree is query reachable.
	Program *ast.Program
	// Satisfiable reports whether the query predicate has any
	// consistent derivation at all; when false, Program has no rules
	// for the query predicate.
	Satisfiable bool
	// Tree is the query forest (Figure 1 of the paper).
	Tree *Tree
	// Warnings lists constraints that were skipped (non-local negated
	// atoms — Theorem 5.4 territory).
	Warnings []string
	// Pipeline records the intermediate programs for inspection.
	Pipeline PipelinePrograms
}

// PipelinePrograms exposes the intermediate stages.
type PipelinePrograms struct {
	Normalized *ast.Program // after order normalization
	Local      *ast.Program // after the Section 4.2 case split
	Pushed     *ast.Program // after selection pushing
	Spec       *adorn.SpecProgram
}

// OptimizeCtx runs the complete semantic-query-optimization pipeline
// of the paper on a program and a set of integrity constraints. The
// rewrite pipeline is pass-structured rather than tuple-at-a-time, so
// cancellation is checked at every pass boundary: a cancelled
// optimization returns the context's error before starting its next
// pass.
func OptimizeCtx(ctx context.Context, p *ast.Program, ics []ast.IC, opts Options) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("qtree: invalid program: %w", err)
	}
	if p.Query == "" {
		return nil, fmt.Errorf("qtree: program has no query predicate (add a '?- pred.' declaration)")
	}
	if err := p.ValidateICs(ics); err != nil {
		return nil, fmt.Errorf("qtree: invalid constraints: %w", err)
	}

	out := &Outcome{}
	cur := p.Clone()
	if opts.NormalizeOrder {
		cur = rewrite.NormalizeOrder(cur)
	}
	out.Pipeline.Normalized = cur

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.LocalRewrite {
		plans := rewrite.PlanICs(ics)
		cur = rewrite.RewriteLocalPlanned(cur, plans)
	}
	out.Pipeline.Local = cur

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.PushOrder {
		pushed, err := rewrite.PushOrder(cur)
		if err != nil {
			return nil, err
		}
		cur = pushed
	}
	out.Pipeline.Pushed = cur

	// Footnote-1 equating: equalities forced by every head of a
	// predicate are propagated into its callers. Always on — it is a
	// precision requirement of the algorithm, not an optional pass.
	cur = rewrite.PropagateHeadEqualities(cur)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, err := adorn.Specialize(cur)
	if err != nil {
		return nil, err
	}
	out.Pipeline.Spec = sp

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := adorn.BottomUp(sp, ics)
	if err != nil {
		return nil, err
	}
	out.Warnings = res.Warnings

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tree := Build(res)
	out.Tree = tree
	out.Program = tree.Extract()
	// Every root of the forest is productive, but attached order
	// residues may have normalized away every rule of the query.
	out.Satisfiable = len(out.Program.RulesFor(out.Program.Query)) > 0

	// Residue atoms were attached where their mappings complete; a
	// final selection-pushing pass moves them "to the earliest possible
	// point in the evaluation of the program" (Section 3), exactly as
	// the paper places them. Only worthwhile when the query survived.
	if opts.PushOrder && out.Satisfiable {
		pushed, err := rewrite.PushOrder(out.Program)
		if err == nil {
			out.Program = pushed
		}
	}
	// The optimizer rewrites rules only; the goal's argument terms pass
	// through untouched so goal-directed evaluation (eval.QueryCtx, the
	// magic-sets rewrite) still sees the query's bindings.
	if len(p.Goal) > 0 {
		out.Program.Goal = append([]ast.Term(nil), p.Goal...)
	}
	return out, nil
}
