package server

import (
	"context"
	"time"

	"repro/internal/store"
)

// restore rebuilds the datasets and views and reports how long that
// took. It replays the recovered operations in order through the
// mutations of ops.go, with no store to log to: each checkpointed
// dataset's creation and then its views, then the WAL tail. A fact batch therefore repairs every view registered
// before it incrementally (delete-rederive), as a live update does,
// rather than re-evaluating it. New runs it before the handler exists,
// with no deadline: recovery must finish, not race a timer. An operation
// that fails (a program that no longer optimizes, a budget blown by
// grown data) is logged and skipped, and must not take the server down
// with it; its record stays in the store, so a later restart retries it.
func (s *Server) restore(rec *store.Recovered) time.Duration {
	start := time.Now()
	ctx := context.Background()
	for _, op := range rec.Ops {
		ds, err := s.datasets.get(op.Dataset)
		switch {
		case op.Kind == store.OpDatasetCreate:
			_, _, err = s.createDataset(nil, op.Dataset, op.Adds)
		case op.Kind == store.OpDatasetDelete:
			_, err = s.deleteDataset(nil, op.Dataset)
		case err != nil: // the operation is on a dataset that is not there
		case op.Kind == store.OpFacts:
			_, _, err = s.updateFacts(ctx, nil, ds, op.Adds, op.Dels, false)
		case op.Kind == store.OpViewRegister:
			_, err = s.createView(ctx, nil, ds, op.View, s.cfg.MaxTuples)
		case op.Kind == store.OpViewDrop:
			err = s.dropView(nil, ds, op.View.Name)
		}
		if err != nil {
			s.log.Warn("replaying a recovered operation: skipped", "dataset", op.Dataset, "view", op.View.Name, "err", err)
		}
	}
	datasets, views := s.datasets.list(), 0
	for _, info := range datasets {
		views += len(info.Views)
	}
	s.log.Info("store recovery complete",
		"datasets", len(datasets),
		"views", views,
		"wal_records", rec.WALRecords,
		"wal_bytes", rec.WALBytes,
		"wal_truncated", rec.Truncated,
		"open_ms", float64(rec.Elapsed.Microseconds())/1000,
		"restore_ms", sinceMS(start),
	)
	return rec.Elapsed + time.Since(start)
}
