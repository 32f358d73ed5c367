package server

import (
	"context"
	"net/http"
	"time"

	sqo "repro"
)

// This file implements the lint surface: a standalone POST /v1/lint
// endpoint, and the advisory diagnostics attached to responses that
// register a program with the server (optimize, view creation). Lint
// runs semantic decision procedures, so it passes through the same
// admission semaphore and deadline plumbing as evaluations, and its
// verdicts degrade to Unknown — never to a wrong answer — when the
// deadline expires first.

type lintRequest struct {
	// Program is datalog source: rules plus an optional '?- pred.'
	// declaration (reachability pruning needs the query).
	Program string `json:"program"`
	// ICs are integrity constraints in source syntax.
	ICs string `json:"ics,omitempty"`
	// Facts are ground facts in source syntax, checked for hygiene
	// (arity, unused EDB predicates) alongside the program.
	Facts string `json:"facts,omitempty"`
	// TimeoutMS bounds the semantic checks (0 → server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type lintResponse struct {
	*sqo.LintReport
	LintMS float64 `json:"lint_ms"`
}

// handleLint lints a program against its constraints (POST /v1/lint).
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) error {
	req, err := decode[lintRequest](r)
	if err != nil {
		return err
	}
	prog, err := sqo.ParseProgram(req.Program)
	if err != nil {
		return parseError("program", err)
	}
	ics, err := sqo.ParseICs(req.ICs)
	if err != nil {
		return parseError("ics", err)
	}
	var facts []sqo.Atom
	if req.Facts != "" {
		if facts, err = sqo.ParseFacts(req.Facts); err != nil {
			return parseError("facts", err)
		}
	}
	return s.admitted(r, s.deadline(req.TimeoutMS), func(ctx context.Context) error {
		start := time.Now()
		writeJSON(w, http.StatusOK, lintResponse{
			LintReport: s.lint(ctx, prog, ics, facts),
			LintMS:     sinceMS(start),
		})
		return nil
	})
}

// lint runs the linter and counts the run and its findings.
func (s *Server) lint(ctx context.Context, prog *sqo.Program, ics []sqo.IC, facts []sqo.Atom) *sqo.LintReport {
	rep := sqo.Lint(ctx, prog, ics, facts, sqo.LintOptions{})
	s.metrics.LintRuns.Add(1)
	s.metrics.LintFindings.Add(int64(len(rep.Findings)))
	return rep
}

// lintDiagnostics lints a request's program as submitted, parsed by the
// caller, for the advisory diagnostics attached to optimize and
// view-create responses. It never fails the request: an empty report
// yields nil.
func (s *Server) lintDiagnostics(ctx context.Context, prog *sqo.Program, ics []sqo.IC) []sqo.LintFinding {
	if rep := s.lint(ctx, prog, ics, nil); len(rep.Findings) > 0 {
		return rep.Findings
	}
	return nil
}
