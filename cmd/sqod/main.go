// sqod — the semantic query optimization daemon.
//
// A long-running HTTP/JSON service around the Levy–Sagiv optimizer:
// register fact datasets, submit programs with integrity constraints,
// and run optimized queries. Rewrites are cached (LRU + singleflight)
// so their cost amortizes across requests; evaluations are bounded by
// admission control and per-request deadlines that genuinely cancel
// the fixpoint; /metrics exposes live counters in Prometheus text
// format.
//
// Datasets are mutable: facts can be added and retracted after
// registration, and materialized views attached to a dataset are kept
// consistent through those updates by incremental maintenance
// (delete-rederive) instead of re-evaluation.
//
// With -data-dir the daemon is durable: every dataset, fact, and view
// mutation is appended to a write-ahead log (fsync policy selected by
// -fsync) before it is acknowledged, the state is periodically
// checkpointed into an immutable file of the same records
// (-checkpoint-every), and on startup the newest checkpoint is read and
// the WAL tail replayed
// — registered views are repaired incrementally through the same
// delete-rederive machinery that maintains them live. A
// graceful shutdown writes a final checkpoint so the next start
// replays an empty tail. Without -data-dir the daemon keeps its datasets
// and views in memory only.
//
// Usage:
//
//	sqod [-addr :8351] [-cache-size n] [-timeout 30s] [-max-timeout 5m]
//	     [-max-tuples n] [-data-dir path] [-fsync always|interval|never]
//	     [-fsync-interval 100ms] [-checkpoint-every 4096]
//	     [-drain 30s] [-log text|json] [-pprof]
//
// At most 2×GOMAXPROCS requests evaluate, rewrite, lint or mutate at
// once (the GOMAXPROCS environment variable sets it); one more is
// answered 429 at once. A request that sets no timeout_ms, a fact
// update among them, runs under -timeout; none runs past -max-timeout.
//
// Endpoints:
//
//	PUT    /v1/datasets/{name}               register or replace facts (datalog source body)
//	POST   /v1/datasets/{name}               register facts; 409 if the name is taken
//	DELETE /v1/datasets/{name}               unregister (drops attached views)
//	GET    /v1/datasets                      list datasets (tuple counts, last-modified, views)
//	POST   /v1/datasets/{name}/facts         insert facts (datalog source body)
//	DELETE /v1/datasets/{name}/facts         retract facts (datalog source body)
//	POST   /v1/datasets/{name}/views/{view}  materialize {program, ics, ...} incrementally
//	GET    /v1/datasets/{name}/views/{view}  current answers of a live view
//	DELETE /v1/datasets/{name}/views/{view}  drop a view
//	POST   /v1/optimize                      {program, ics} → rewritten program
//	POST   /v1/query                         {program, ics, dataset, timeout_ms, ...}
//	POST   /v1/lint                          {program, ics} → static-analysis findings
//	GET    /metrics                          Prometheus text metrics
//	GET    /healthz                          liveness
//	GET    /readyz                           readiness: 503 once the store failed stop
//	GET    /debug/pprof/                     runtime profiles (only with -pprof)
//
// On SIGTERM or SIGINT the daemon stops accepting connections, drains
// in-flight requests (up to -drain), and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8351", "listen address")
	cacheSize := flag.Int("cache-size", 128, "optimized-program LRU cache entries; also bounds the memo of parsed request texts")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request timeout, dataset mutations included")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeouts")
	maxTuples := flag.Int64("max-tuples", 0, "per-query derived-tuple budget (0 = unlimited)")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = in-memory, no persistence)")
	fsyncPolicy := flag.String("fsync", "always", "WAL durability: always, interval, or never (with -data-dir)")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "sync period under -fsync=interval")
	checkpointEvery := flag.Int("checkpoint-every", 4096, "checkpoint after this many WAL records (0 = only at shutdown)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window")
	logFormat := flag.String("log", "text", "log format: text or json")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/ (only on a trusted -addr)")
	flag.Parse()

	// Request records reach stderr within logFlushEvery; every other
	// record, and every record logged before it, before its call returns.
	logs := &logBuffer{out: os.Stderr, every: logFlushEvery}
	handler, form := slog.Handler(slog.NewTextHandler(logs, nil)), formText
	if *logFormat == "json" {
		handler, form = slog.NewJSONHandler(logs, nil), formJSON
	}
	logger := slog.New(flushing{handler, logs, form})

	// Durable mode: open (and recover) the store before the server
	// exists, so New can replay the recovered state into datasets and
	// views ahead of the first request.
	var st *store.Store
	var recovered *store.Recovered
	if *dataDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			logger.Error("bad -fsync", "err", err)
			os.Exit(2)
		}
		openStart := time.Now()
		st, recovered, err = store.Open(*dataDir, store.Options{
			Fsync:           policy,
			FsyncInterval:   *fsyncInterval,
			CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			logger.Error("opening store", "data_dir", *dataDir, "err", err)
			os.Exit(1)
		}
		logger.Info("store opened",
			"data_dir", *dataDir,
			"fsync", policy.String(),
			"ops", len(recovered.Ops),
			"wal_records", recovered.WALRecords,
			"wal_bytes", recovered.WALBytes,
			"wal_truncated", recovered.Truncated,
			"open_ms", float64(time.Since(openStart).Microseconds())/1000,
		)
	}

	srv := server.New(server.Config{
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxTuples:      *maxTuples,
		Logger:         logger,
		EnablePprof:    *enablePprof,
		Store:          st,
		Recovered:      recovered,
	})

	serve(logger, *addr, srv.Handler(), *drain, func() error {
		// All mutations drained; flush a final checkpoint so the next
		// start reads a checkpoint with an empty WAL tail instead of
		// replaying the whole log.
		if st == nil {
			return nil
		}
		ckptStart := time.Now()
		if err := st.Checkpoint(); err != nil {
			_ = st.Close()
			return fmt.Errorf("final checkpoint: %w", err)
		}
		if err := st.Close(); err != nil {
			return fmt.Errorf("closing store: %w", err)
		}
		logger.Info("final checkpoint written",
			"checkpoint_ms", float64(time.Since(ckptStart).Microseconds())/1000)
		return nil
	})
}

// serve runs the HTTP server until SIGTERM/SIGINT, then drains: the
// listener closes, new connections are refused, and in-flight requests
// run to completion (their own deadlines still apply) before shutdown
// runs and the process exits 0.
func serve(logger *slog.Logger, addr string, h http.Handler, drain time.Duration, shutdown func() error) {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down: draining in-flight requests", "drain", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Error("drain incomplete", "err", err)
		_ = httpSrv.Close()
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener error", "err", err)
		os.Exit(1)
	}
	if err := shutdown(); err != nil {
		logger.Error("shutdown hook failed", "err", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly; exiting")
	fmt.Fprintln(os.Stderr, "sqod: clean shutdown")
}
