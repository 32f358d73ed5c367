package server

import (
	"context"
	"net/http"
	"time"

	sqo "repro"
	"repro/internal/store"
)

// This file holds the mutations of the dataset surface. Each is one
// operation that its handler calls with the server's store, which logs
// the mutation before it is applied or acknowledged, and that recovery
// (restore.go) calls with none, replaying what the store already holds.
// The dataset and view gauges are written here and nowhere else.

// createDataset registers name holding facts; when the name is taken it
// returns the dataset registered under it and created false. The create
// record reaches wal while the registry lock is held, after the name is
// known to be free and before the dataset becomes visible, which pins
// the WAL order to the registry order: no fact record for the dataset
// can reach the log before its create record.
func (s *Server) createDataset(wal *store.Store, name string, facts []sqo.Atom) (ds *dataset, created bool, err error) {
	st := s.datasets
	st.mu.Lock()
	defer st.mu.Unlock()
	if ds, ok := st.byName[name]; ok {
		return ds, false, nil
	}
	if wal != nil {
		if err := wal.AppendDatasetCreate(name, facts); err != nil {
			return nil, false, &storeError{"create", name, err}
		}
	}
	ds = newDataset(name, facts, time.Now())
	st.byName[name] = ds
	s.metrics.Datasets.Store(int64(len(st.byName)))
	return ds, true, nil
}

// deleteDataset unregisters name and drops its views, returning how many
// it held. The delete record reaches wal before the name is freed, so no
// create record can reuse the name ahead of it.
func (s *Server) deleteDataset(wal *store.Store, name string) (views int, err error) {
	st := s.datasets
	st.mu.Lock()
	ds, ok := st.byName[name]
	if !ok {
		st.mu.Unlock()
		return 0, unknownDataset(name)
	}
	if wal != nil {
		if err := wal.AppendDatasetDelete(name); err != nil {
			st.mu.Unlock()
			return 0, &storeError{"delete", name, err}
		}
	}
	delete(st.byName, name)
	s.metrics.Datasets.Store(int64(len(st.byName)))
	st.mu.Unlock()
	views = ds.dropViews()
	s.metrics.Views.Add(int64(-views))
	return views, nil
}

// updateFacts applies one fact batch to ds and pushes it through its
// views (dataset.update); with wal, the batch is logged first.
func (s *Server) updateFacts(ctx context.Context, wal *store.Store, ds *dataset, adds, dels []sqo.Atom, replace bool) (factUpdate, DatasetInfo, error) {
	var persist func(adds, dels []sqo.Atom) error
	if wal != nil {
		persist = func(adds, dels []sqo.Atom) error {
			if err := wal.AppendFacts(ds.name, adds, dels); err != nil {
				return &storeError{"update", ds.name, err}
			}
			return nil
		}
	}
	return ds.update(ctx, adds, dels, replace, time.Now(), persist)
}

// createdView is a view createView registered, with what its creation
// response reports beside the answers: the program as submitted and its
// ics, for the diagnostics, and whether the rewrite came from the cache.
type createdView struct {
	mv       *matView
	src      *sqo.Program
	ics      []sqo.IC
	diagnose bool // false when an unoptimized view's ics do not parse
	cacheHit bool
}

// createView parses def, rewrites it through the cache when
// def.Optimized, materializes it over ds's facts with at most maxTuples
// derived, and registers it. The dataset lock covers the
// materialization: a fact update between reading the facts and
// registering the view would otherwise be invisible to the view forever.
// With wal, the definition is logged before the view becomes visible;
// recovery materializes the view again from it, so only the definition
// needs to be durable, not the answers.
func (s *Server) createView(ctx context.Context, wal *store.Store, ds *dataset, def store.ViewDef, maxTuples int64) (*createdView, error) {
	src, ics, err := parseRequest(def.Program, def.ICs, def.Optimized)
	if err != nil {
		return nil, err
	}
	v := &createdView{src: src, ics: ics, diagnose: true}
	prog := src
	if def.Optimized {
		_, opt, hit, err := s.optimizeCached(ctx, &parsed{src, ics, patternKey(src, ics, sqo.DefaultOptions(), "optimize")})
		if err != nil {
			return nil, err
		}
		prog, v.cacheHit = opt, hit
	} else if v.ics, err = sqo.ParseICs(def.ICs); err != nil {
		// Unoptimized, the ics only feed the diagnostics: ones that do
		// not parse cost those, not the view.
		v.diagnose = false
	}

	ds.mu.Lock()
	defer ds.mu.Unlock()
	if _, exists := ds.viewMap()[def.Name]; exists {
		return nil, errorf(http.StatusConflict, "view_exists", "view %q already exists on dataset %q", def.Name, ds.name)
	}
	view, err := sqo.MaterializeCtx(ctx, prog, ds.db.Load(), sqo.ViewOptions{MaxTuples: maxTuples})
	if err != nil {
		return nil, err
	}
	if wal != nil {
		if err := wal.AppendViewRegister(ds.name, def); err != nil {
			return nil, &storeError{"view create", def.Name, err}
		}
	}
	v.mv = &matView{name: def.Name, program: prog, optimized: def.Optimized, view: view}
	ds.putView(def.Name, v.mv)
	s.metrics.Views.Add(1)
	return v, nil
}

// dropView unregisters ds's view name; with wal, the drop is logged
// first.
func (s *Server) dropView(wal *store.Store, ds *dataset, name string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if _, ok := ds.viewMap()[name]; !ok {
		return unknownView(name, ds.name)
	}
	if wal != nil {
		if err := wal.AppendViewDrop(ds.name, name); err != nil {
			return &storeError{"view delete", name, err}
		}
	}
	ds.putView(name, nil)
	s.metrics.Views.Add(-1)
	return nil
}
