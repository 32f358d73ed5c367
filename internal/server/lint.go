package server

import (
	"context"
	"encoding/json"
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
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	var req lintRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding JSON: %v", err)
		return
	}
	prog, err := sqo.ParseProgram(req.Program)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse_error", "parsing program: %v", err)
		return
	}
	ics, err := sqo.ParseICs(req.ICs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse_error", "parsing ics: %v", err)
		return
	}
	var facts []sqo.Atom
	if req.Facts != "" {
		facts, err = sqo.ParseFacts(req.Facts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse_error", "parsing facts: %v", err)
			return
		}
	}

	release, ok := s.admit()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", "too many in-flight requests (limit %d)", s.cfg.MaxInflight)
		return
	}
	defer release()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	// The server's query path applies the magic-sets and
	// bounded-recursion-elimination rewrites by default, so the L6
	// bound-query and L7 bounded-recursion advisories do not apply
	// here.
	rep := sqo.Lint(ctx, prog, ics, facts, sqo.LintOptions{MagicEnabled: true, ElimEnabled: true})
	s.metrics.LintRuns.Add(1)
	s.metrics.LintFindings.Add(int64(len(rep.Findings)))
	writeJSON(w, http.StatusOK, lintResponse{
		LintReport: rep,
		LintMS:     float64(time.Since(start).Microseconds()) / 1000,
	})
}

// lintDiagnostics lints a request's program as submitted, parsed by the
// caller, for the advisory diagnostics attached to optimize and
// view-create responses. It never fails the request: an empty report
// yields nil.
func (s *Server) lintDiagnostics(ctx context.Context, prog *sqo.Program, ics []sqo.IC) []sqo.LintFinding {
	rep := sqo.Lint(ctx, prog, ics, nil, sqo.LintOptions{MagicEnabled: true, ElimEnabled: true})
	s.metrics.LintRuns.Add(1)
	s.metrics.LintFindings.Add(int64(len(rep.Findings)))
	if len(rep.Findings) == 0 {
		return nil
	}
	return rep.Findings
}
