package server

import (
	"context"
	"time"

	sqo "repro"
	"repro/internal/store"
)

// restore rebuilds the mutable-dataset surface from recovered store
// state: the checkpoint base first (datasets created whole, views
// re-materialized once from their stored sources), then the WAL tail
// in log order — fact batches flow through the same dataset.update path
// live mutations use, so every view registered by the time a batch
// replays is repaired incrementally (counting / delete-rederive)
// rather than re-evaluated from scratch. Runs inside New, before the
// handler serves, with no deadline: recovery must finish, not race a
// timer. Nothing here appends to the WAL — the store already holds
// these operations.
func (s *Server) restore(rec *store.Recovered) {
	start := time.Now()
	ctx := context.Background()
	views := 0
	for _, snap := range rec.Datasets {
		ds, _, _ := s.datasets.create(snap.Name, snap.Facts, start, nil)
		for _, def := range snap.Views {
			if s.restoreView(ctx, ds, def) {
				views++
			}
		}
	}
	for _, op := range rec.Tail {
		switch op.Kind {
		case store.OpDatasetCreate:
			s.datasets.create(op.Dataset, op.Adds, time.Now(), nil)
		case store.OpDatasetDelete:
			if ds, ok, _ := s.datasets.delete(op.Dataset, nil); ok {
				s.metrics.Views.Add(int64(-ds.dropViews()))
			}
		case store.OpFacts:
			if ds, ok := s.datasets.get(op.Dataset); ok {
				if _, _, err := ds.update(ctx, op.Adds, op.Dels, false, time.Now(), nil); err != nil {
					s.log.Warn("replaying fact batch: skipped", "dataset", op.Dataset, "err", err)
				}
			}
		case store.OpViewRegister:
			if ds, ok := s.datasets.get(op.Dataset); ok {
				if s.restoreView(ctx, ds, op.View) {
					views++
				}
			}
		case store.OpViewDrop:
			if ds, ok := s.datasets.get(op.Dataset); ok {
				ds.mu.Lock()
				if _, exists := ds.viewMap()[op.View.Name]; exists {
					ds.putView(op.View.Name, nil)
					s.metrics.Views.Add(-1)
					views--
				}
				ds.mu.Unlock()
			}
		}
	}
	s.log.Info("store recovery complete",
		"datasets", len(s.datasets.list()),
		"views", views,
		"wal_records", rec.WALRecords,
		"wal_bytes", rec.WALBytes,
		"wal_truncated", rec.Truncated,
		"open_ms", float64(rec.Elapsed.Microseconds())/1000,
		"restore_ms", float64(time.Since(start).Microseconds())/1000,
	)
	s.metrics.RecoverySeconds = (rec.Elapsed + time.Since(start)).Seconds()
}

// restoreView re-materializes one durable view definition over the
// dataset's current snapshot. Failures (a program that no longer
// optimizes, a budget blown by grown data) are logged and skipped —
// the definition stays in the store, so a later restart retries — and
// must not take the server down with them.
func (s *Server) restoreView(ctx context.Context, ds *dataset, def store.ViewDef) bool {
	var prog *sqo.Program
	if def.Optimized {
		p, ics, err := parseRequest(def.Program, def.ICs, true)
		var res *sqo.Result
		if err == nil {
			res, _, err = s.optimizeCached(ctx, p, ics)
		}
		if err != nil {
			s.log.Warn("restoring view: optimize failed", "dataset", ds.name, "view", def.Name, "err", err)
			return false
		}
		prog = res.Program
	} else {
		p, err := sqo.ParseProgram(def.Program)
		if err != nil || p.Query == "" {
			s.log.Warn("restoring view: parse failed", "dataset", ds.name, "view", def.Name, "err", err)
			return false
		}
		prog = p
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if _, exists := ds.viewMap()[def.Name]; exists {
		return false
	}
	view, err := sqo.MaterializeCtx(ctx, prog, ds.db.Load(), sqo.ViewOptions{MaxTuples: s.cfg.MaxTuples})
	if err != nil {
		s.log.Warn("restoring view: materialize failed", "dataset", ds.name, "view", def.Name, "err", err)
		return false
	}
	ds.putView(def.Name, &matView{name: def.Name, program: prog, optimized: def.Optimized, view: view, createdAt: time.Now()})
	s.metrics.Views.Add(1)
	return true
}
