package server

import (
	"context"
	"io"
	"net/http"
	"time"

	sqo "repro"
	"repro/internal/store"
)

// This file holds the handlers of the mutable-dataset surface: fact-level
// insertions and retractions on registered datasets, and materialized
// views that survive those updates through incremental maintenance
// (delete-rederive; see package incr). The mutations
// themselves are the operations of ops.go. Fact updates and view
// materializations are evaluation work, so they are admitted like
// queries: a fact update runs under DefaultTimeout, a view creation
// under its request's timeout_ms.

// --- fact mutations ---------------------------------------------------

// updateResponse describes one completed dataset mutation.
type updateResponse struct {
	Dataset      DatasetInfo  `json:"dataset"`
	FactsAdded   int          `json:"facts_added"`
	FactsRemoved int          `json:"facts_removed"`
	Views        []viewUpdate `json:"views,omitempty"`
	UpdateMS     float64      `json:"update_ms"`
}

// parseFactsBody reads the request body as datalog ground facts.
func parseFactsBody(r *http.Request) ([]sqo.Atom, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "bad_request", "reading body: %v", err)
	}
	facts, err := sqo.ParseFacts(string(body))
	if err != nil {
		return nil, parseError("facts", err)
	}
	return facts, nil
}

// updateDataset is the shared tail of every mutation handler: the
// mutation (updateFacts) as an admitted request under the request
// deadline, accounted and answered.
func (s *Server) updateDataset(w http.ResponseWriter, r *http.Request, ds *dataset, adds, dels []sqo.Atom, replace bool) error {
	return s.admitted(r, s.deadline(0), func(ctx context.Context) error {
		start := time.Now()
		up, info, err := s.updateFacts(ctx, s.store, ds, adds, dels, replace)
		if err != nil {
			return err
		}
		s.metrics.FactUpdates.Add(1)
		s.metrics.ViewApplies.Add(int64(len(up.views)))
		writeJSON(w, http.StatusOK, updateResponse{
			Dataset:      info,
			FactsAdded:   up.added,
			FactsRemoved: up.removed,
			Views:        up.views,
			UpdateMS:     sinceMS(start),
		})
		return nil
	})
}

// handleFacts inserts (POST) or retracts (DELETE) the body's ground
// facts on a dataset (/v1/datasets/{name}/facts). Retracting a fact the
// dataset does not hold is a no-op.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) error {
	ds, err := s.datasets.get(r.PathValue("name"))
	if err != nil {
		return err
	}
	facts, err := parseFactsBody(r)
	if err != nil {
		return err
	}
	if r.Method == http.MethodDelete {
		return s.updateDataset(w, r, ds, nil, facts, false)
	}
	return s.updateDataset(w, r, ds, facts, nil, false)
}

// handleDatasetDelete unregisters a dataset and drops its views
// (DELETE /v1/datasets/{name}).
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	nviews, err := s.deleteDataset(s.store, name)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "views_dropped": nviews})
	return nil
}

// --- materialized views -----------------------------------------------

type viewRequest struct {
	// Program is datalog source: rules plus a '?- pred.' declaration.
	Program string `json:"program"`
	// ICs are integrity constraints in source syntax.
	ICs string `json:"ics,omitempty"`
	// Optimize selects whether to run the Levy–Sagiv rewrite before
	// materializing (default true). The rewrite is cached, so a view
	// over an already-optimized program costs only the fixpoint.
	Optimize *bool `json:"optimize,omitempty"`
	// TimeoutMS bounds the initial materialization (0 → server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxTuples bounds tuples materialized by the initial fixpoint and
	// any full rebuild (0 → server default; a value above the server's
	// -max-tuples is clamped to it, the budget a restore replays under).
	MaxTuples int64 `json:"max_tuples,omitempty"`
}

// viewStatsJSON mirrors sqo.ViewStats over the wire.
type viewStatsJSON struct {
	InitRounds     int   `json:"init_rounds"`
	InitTuples     int64 `json:"init_tuples"`
	InitProbes     int64 `json:"init_probes"`
	Applies        int64 `json:"applies"`
	FullRebuilds   int64 `json:"full_rebuilds"`
	DeltaRounds    int64 `json:"delta_rounds"`
	DeltaProbes    int64 `json:"delta_probes"`
	RederiveChecks int64 `json:"rederive_checks"`
	AnswersAdded   int64 `json:"answers_added"`
	AnswersRemoved int64 `json:"answers_removed"`
}

func toViewStats(s sqo.ViewStats) viewStatsJSON {
	return viewStatsJSON{
		InitRounds:     s.InitRounds,
		InitTuples:     s.InitTuples,
		InitProbes:     s.InitProbes,
		Applies:        s.Applies,
		FullRebuilds:   s.FullRebuilds,
		DeltaRounds:    s.DeltaRounds,
		DeltaProbes:    s.DeltaProbes,
		RederiveChecks: s.RederiveChecks,
		AnswersAdded:   s.TuplesAdded,
		AnswersRemoved: s.TuplesRemoved,
	}
}

type viewResponse struct {
	Name        string   `json:"name"`
	Dataset     string   `json:"dataset"`
	Query       string   `json:"query"`
	Answers     []string `json:"answers"`
	AnswerCount int      `json:"answer_count"`
	Optimized   bool     `json:"optimized"`
	CacheHit    bool     `json:"cache_hit,omitempty"`
	// Diagnostics carries the semantic linter's findings on the
	// program as submitted; present only on view creation.
	Diagnostics   []sqo.LintFinding `json:"diagnostics,omitempty"`
	Stats         viewStatsJSON     `json:"stats"`
	MaterializeMS float64           `json:"materialize_ms,omitempty"`
}

// handleViewCreate materializes a program over a dataset and keeps it
// live across fact updates (POST /v1/datasets/{name}/views/{view},
// body: {program, ics, optimize, timeout_ms, max_tuples}). Duplicate
// view names answer 409.
func (s *Server) handleViewCreate(w http.ResponseWriter, r *http.Request) error {
	ds, err := s.datasets.get(r.PathValue("name"))
	if err != nil {
		return err
	}
	var req viewRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	def := store.ViewDef{Name: r.PathValue("view"), Program: req.Program, ICs: req.ICs, Optimized: req.Optimize == nil || *req.Optimize}
	return s.admitted(r, s.deadline(req.TimeoutMS), func(ctx context.Context) error {
		start := time.Now()
		v, err := s.createView(ctx, s.store, ds, def, s.budget(req.MaxTuples))
		if err != nil {
			return err
		}
		var diags []sqo.LintFinding
		if v.diagnose {
			diags = s.lintDiagnostics(ctx, v.src, v.ics)
		}
		return s.respondView(w, ds, v.mv, v.cacheHit, sinceMS(start), diags)
	})
}

// handleViewGet returns a view's current answers (GET
// /v1/datasets/{name}/views/{view}); a view broken by a failed update
// repairs itself (full rebuild) here. The registry is read without the
// dataset's lock, so the read does not queue behind an update's WAL
// append or its maintenance of other views.
func (s *Server) handleViewGet(w http.ResponseWriter, r *http.Request) error {
	ds, err := s.datasets.get(r.PathValue("name"))
	if err != nil {
		return err
	}
	mv, ok := ds.viewMap()[r.PathValue("view")]
	if !ok {
		return unknownView(r.PathValue("view"), ds.name)
	}
	return s.respondView(w, ds, mv, false, 0, nil)
}

// handleViewDelete drops a view (DELETE /v1/datasets/{name}/views/{view}).
func (s *Server) handleViewDelete(w http.ResponseWriter, r *http.Request) error {
	ds, err := s.datasets.get(r.PathValue("name"))
	if err != nil {
		return err
	}
	if err := s.dropView(s.store, ds, r.PathValue("view")); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": r.PathValue("view"), "dataset": ds.name})
	return nil
}

// respondView renders a view's current answers and statistics.
// Result() repairs a broken view first, so a view that failed an
// request deadline serves correct (rebuilt) answers here; it copies the
// rows out under the view's lock, and they are ordered and written with
// no lock held.
func (s *Server) respondView(w http.ResponseWriter, ds *dataset, mv *matView, cacheHit bool, materializeMS float64, diagnostics []sqo.LintFinding) error {
	result, err := mv.view.Result()
	if err != nil {
		return err
	}
	writeAnswers(w, viewResponse{
		Name:          mv.name,
		Dataset:       ds.name,
		Query:         mv.program.Query,
		Answers:       []string{}, // written by writeAnswers
		AnswerCount:   result.Len(),
		Optimized:     mv.optimized,
		CacheHit:      cacheHit,
		Diagnostics:   diagnostics,
		Stats:         toViewStats(mv.view.Stats()),
		MaterializeMS: materializeMS,
	}, result, sqo.ByKey)
	return nil
}
