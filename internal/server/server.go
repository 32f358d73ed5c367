// Package server implements sqod, the long-running semantic query
// optimization service: HTTP/JSON endpoints to register fact datasets,
// submit programs with integrity constraints, and run optimized
// queries. The Levy–Sagiv rewrite is an ahead-of-time transformation
// whose cost amortizes over every query served against it, so the
// server keeps an LRU cache of optimized and prepared programs (keyed
// by a canonical hash of program + goal binding pattern + constraints +
// options, with singleflight deduplication; a point query binds its
// constants per request), bounds concurrent evaluations with fast 429s,
// cancels the fixpoint when a request times out or its client
// disconnects, and exposes live counters at /metrics.
//
// Datasets are mutable (fact-level insert/retract endpoints, replace
// via PUT), and materialized views attached to a dataset survive
// those updates: each mutation is pushed through sqo.View.Apply,
// which maintains the answers incrementally (counting / DRed) under
// the same admission control and a per-update deadline.
//
// Answers are written once. A query's answers reach its handler as an
// interned result (sqo.QueryResult), a view's as a copy of its rows taken
// under the view's lock, and writeAnswers streams either through
// internal/jsonresp: each distinct constant rendered and JSON-escaped
// once, rows ordered by constant rank, the body leaving in 64 KB chunks.
// The body is byte for byte what json.Encoder with SetIndent("", "  ")
// wrote when the envelope held a []string of Tuple.String renderings
// (answers_test.go keeps that path as the oracle); /v1/query orders by
// Tuple.String (sqo.ByString) and view reads by Tuple.Key (sqo.ByKey),
// both through Result.Ordered; and no dataset or view mutex is held while
// bytes go to a ResponseWriter, so a stalled client holds up only itself.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	sqo "repro"
	"repro/internal/jsonresp"
	"repro/internal/store"
)

// Config tunes the server; the zero value is usable (see defaults in
// New).
type Config struct {
	// MaxInflight bounds concurrently running evaluations; requests
	// beyond the bound are rejected immediately with 429 rather than
	// queued behind work that may never finish in time. Default:
	// 2×GOMAXPROCS.
	MaxInflight int
	// CacheSize bounds the rewrite cache (optimized programs and
	// prepared queries). Default: 128.
	CacheSize int
	// DefaultTimeout applies to queries that set no timeout_ms.
	// Default: 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts. Default: 5m.
	MaxTimeout time.Duration
	// UpdateTimeout bounds one dataset mutation end to end, including
	// incremental maintenance of every attached view. Default:
	// DefaultTimeout.
	UpdateTimeout time.Duration
	// MaxTuples is the per-query derived-tuple budget (0 = unlimited).
	MaxTuples int64
	// MaxBodyBytes bounds request bodies. Default: 8 MiB.
	MaxBodyBytes int64
	// EnablePprof registers net/http/pprof handlers under /debug/pprof/
	// on the server's mux. The profiles expose internals (goroutine
	// stacks, heap contents), so only enable it where the listen
	// address is trusted.
	EnablePprof bool
	// Logger receives structured request logs; default slog.Default().
	Logger *slog.Logger
	// Store, when set, makes the mutable-dataset surface durable: every
	// dataset/fact/view mutation is appended to its write-ahead log
	// before the request is acknowledged. Nil (the default) keeps
	// today's purely in-memory behavior.
	Store *store.Store
	// Recovered carries the state Store reconstructed at open; New
	// replays it — checkpoint base first, then the WAL tail through the
	// incremental view-maintenance path — before serving.
	Recovered *store.Recovered
	// AsyncRestore runs the Recovered replay in the background instead
	// of blocking New. Until it completes, /readyz reports 503 and every
	// dataset-touching endpoint fails fast with code "not_ready" —
	// /healthz stays pure liveness so orchestrators don't kill a node
	// for the crime of recovering a large WAL. Load balancers and
	// orchestrators use /readyz to hold traffic off a still-restoring node.
	AsyncRestore bool
}

// Server is the sqod service. Create with New, expose via Handler.
type Server struct {
	cfg     Config
	log     *slog.Logger
	metrics *Metrics
	cache   *lru[*compiled]
	sem     chan struct{} // admission-control semaphore
	store   *store.Store  // nil when running in-memory
	ready   atomic.Bool   // false until durable-state restore completes

	datasets *datasetStore
}

// New returns a configured server.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	m := NewMetrics()
	c := newLRU[*compiled](cfg.CacheSize)
	c.metrics = m
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		metrics:  m,
		cache:    c,
		sem:      make(chan struct{}, cfg.MaxInflight),
		store:    cfg.Store,
		datasets: newDatasetStore(m),
	}
	if s.store != nil {
		m.StoreStats = func() (int64, int64, int64) {
			c := s.store.Counters()
			return c.Appends, c.Bytes, c.Checkpoints
		}
		if cfg.Recovered != nil {
			if cfg.AsyncRestore {
				go func() {
					s.restore(cfg.Recovered)
					s.ready.Store(true)
				}()
				return s
			}
			s.restore(cfg.Recovered)
		}
	}
	s.ready.Store(true)
	return s
}

// Ready reports whether durable-state restore has completed (always
// true without a store or with synchronous restore).
func (s *Server) Ready() bool { return s.ready.Load() }

// Metrics exposes the server's registry (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats reports the rewrite cache's counters (for tests and
// embedding).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Handler returns the server's routed HTTP handler with request
// logging and latency instrumentation applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.instrument("metrics", s.metrics.ServeHTTP))
	mux.Handle("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		// Pure liveness: true as long as the process serves HTTP, even
		// mid-restore. Readiness is /readyz.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.Handle("GET /readyz", s.instrument("readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "restoring")
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	mux.Handle("PUT /v1/datasets/{name}", s.gated("dataset_put", s.handleDatasetPut))
	mux.Handle("POST /v1/datasets/{name}", s.gated("dataset_post", s.handleDatasetPost))
	mux.Handle("DELETE /v1/datasets/{name}", s.gated("dataset_delete", s.handleDatasetDelete))
	mux.Handle("GET /v1/datasets", s.gated("dataset_list", s.handleDatasetList))
	mux.Handle("POST /v1/datasets/{name}/facts", s.gated("facts_add", s.handleFactsAdd))
	mux.Handle("DELETE /v1/datasets/{name}/facts", s.gated("facts_delete", s.handleFactsDelete))
	mux.Handle("POST /v1/datasets/{name}/views/{view}", s.gated("view_create", s.handleViewCreate))
	mux.Handle("GET /v1/datasets/{name}/views/{view}", s.gated("view_get", s.handleViewGet))
	mux.Handle("DELETE /v1/datasets/{name}/views/{view}", s.gated("view_delete", s.handleViewDelete))
	mux.Handle("POST /v1/optimize", s.instrument("optimize", s.handleOptimize))
	mux.Handle("POST /v1/lint", s.instrument("lint", s.handleLint))
	mux.Handle("POST /v1/query", s.gated("query", s.handleQuery))
	if s.cfg.EnablePprof {
		// net/http/pprof only self-registers on http.DefaultServeMux;
		// a custom mux needs the handlers wired explicitly.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter captures the response code for logging and metrics.
// Unwrap lets http.ResponseController reach the connection through it
// (Flush, SetWriteDeadline); body bytes still pass through Write.
type statusWriter struct {
	http.ResponseWriter
	code    int
	bytes   int
	started bool // a header or body byte has gone out
}

func (w *statusWriter) WriteHeader(code int) {
	w.code, w.started = code, true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.started = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// gated wraps a dataset-touching handler so it fails fast with 503
// "not_ready" while an asynchronous restore is still replaying durable
// state — serving a partial dataset would silently return wrong
// answers. Pure-compute endpoints (optimize, lint) stay ungated.
func (s *Server) gated(endpoint string, h http.HandlerFunc) http.Handler {
	return s.instrument(endpoint, func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			writeError(w, http.StatusServiceUnavailable, "not_ready",
				"server is restoring durable state; retry shortly")
			return
		}
		h(w, r)
	})
}

// instrument wraps a handler with body limiting, panic containment,
// latency observation, and one structured log line per request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.contain(endpoint, sw, r, h)
		elapsed := time.Since(start)
		s.metrics.ObserveRequest(endpoint, sw.code, elapsed)
		s.log.Info("request",
			"endpoint", endpoint,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.code,
			"dur_ms", float64(elapsed.Microseconds())/1000,
			"bytes", sw.bytes,
			"remote", r.RemoteAddr,
		)
	})
}

// contain runs h and turns a panic in it into a 500 internal_error (when
// the response has not started), one error line with the stack, and a
// tick of sqod_panics_total — so one bad request costs one request, not
// the connection's reply and the request's metrics and log line.
// http.ErrAbortHandler is net/http's own abort signal and passes through.
func (s *Server) contain(endpoint string, sw *statusWriter, r *http.Request, h http.HandlerFunc) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		s.metrics.panics.Add(1)
		s.log.Error("panic in handler", "endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
			"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
		if sw.started {
			sw.code = http.StatusInternalServerError // for the log and metrics; the client's status is out
			return
		}
		writeError(sw, http.StatusInternalServerError, "internal_error", "internal error; see the server log")
	}()
	h(sw, r)
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeAnswers is writeJSON for the two envelopes that carry answers
// (queryResponse, viewResponse): a 200 whose "answers" member is the
// result's tuples in the given order, each written as Tuple.String.
func writeAnswers(w http.ResponseWriter, envelope any, result *sqo.QueryResult, order sqo.AnswerOrder) {
	jsonresp.Write(w, http.StatusOK, envelope, func(a *jsonresp.Array) {
		result.Ordered(order, jsonresp.AppendEscaped, a.Tuple)
	})
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// admit reserves an evaluation slot, or reports failure immediately
// (fast 429) when MaxInflight slots are taken. The caller must invoke
// the returned release exactly once on success.
func (s *Server) admit() (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		s.metrics.InflightEvals.Add(1)
		return func() {
			s.metrics.InflightEvals.Add(-1)
			<-s.sem
		}, true
	default:
		s.metrics.AdmissionRejections.Add(1)
		return nil, false
	}
}

// --- datasets ---------------------------------------------------------

// handleDatasetPut registers or replaces a named dataset. The body is
// datalog ground facts in source syntax. Replacing a live dataset is
// expressed as the add/retract batch that turns the old fact set into
// the new one, so attached materialized views survive a PUT and are
// maintained incrementally through it.
func (s *Server) handleDatasetPut(w http.ResponseWriter, r *http.Request) {
	name, facts, ok := s.parseDatasetBody(w, r)
	if !ok {
		return
	}
	ds, created, err := s.datasets.create(name, facts, time.Now(), s.persistCreate(name, facts))
	if err != nil {
		s.writeStoreError(w, "create", name, err)
		return
	}
	if created {
		writeJSON(w, http.StatusOK, ds.describe())
		return
	}
	s.updateDataset(w, r, ds, facts, nil, true)
}

// parseDatasetBody reads a whole-dataset request (PUT, POST): the name
// from the path and the body as ground facts that use each predicate at
// one arity — checked here, before the create record can reach the WAL
// or the registry lock is taken, because building the dataset's
// relations panics on a mixed-arity predicate.
func (s *Server) parseDatasetBody(w http.ResponseWriter, r *http.Request) (name string, facts []sqo.Atom, ok bool) {
	if name = r.PathValue("name"); name == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "dataset name missing")
		return "", nil, false
	}
	if facts, ok = parseFactsBody(w, r); !ok {
		return "", nil, false
	}
	if err := arityConflict(map[string]int{}, facts); err != nil {
		s.writeRequestError(w, err)
		return "", nil, false
	}
	return name, facts, true
}

// persistCreate returns the WAL-append callback for a dataset create,
// or nil when the server runs in-memory.
func (s *Server) persistCreate(name string, facts []sqo.Atom) func() error {
	if s.store == nil {
		return nil
	}
	return func() error { return s.store.AppendDatasetCreate(name, facts) }
}

// writeStoreError reports a failed write-ahead append. The mutation
// was NOT applied — durability is part of the acknowledgment contract,
// so a store failure fails the request.
func (s *Server) writeStoreError(w http.ResponseWriter, op, name string, err error) {
	s.log.Error("wal append failed", "op", op, "name", name, "err", err)
	writeError(w, http.StatusInternalServerError, "store_error", "durable %s failed: %v", op, err)
}

// handleDatasetPost registers a new dataset, answering 409 when the
// name is already taken (PUT is the create-or-replace form).
func (s *Server) handleDatasetPost(w http.ResponseWriter, r *http.Request) {
	name, facts, ok := s.parseDatasetBody(w, r)
	if !ok {
		return
	}
	ds, created, err := s.datasets.create(name, facts, time.Now(), s.persistCreate(name, facts))
	if err != nil {
		s.writeStoreError(w, "create", name, err)
		return
	}
	if !created {
		writeError(w, http.StatusConflict, "dataset_exists", "dataset %q is already registered (PUT replaces)", name)
		return
	}
	writeJSON(w, http.StatusOK, ds.describe())
}

// handleDatasetList lists registered datasets.
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.datasets.list())
}

// --- optimize ---------------------------------------------------------

type optimizeRequest struct {
	// Program is datalog source: rules plus a '?- pred.' declaration.
	Program string `json:"program"`
	// ICs are integrity constraints in source syntax (':- body.').
	ICs string `json:"ics,omitempty"`
}

type optimizeResponse struct {
	Program     string   `json:"program"`
	Satisfiable bool     `json:"satisfiable"`
	Explain     string   `json:"explain,omitempty"`
	Warnings    []string `json:"warnings,omitempty"`
	// Diagnostics carries the semantic linter's findings on the
	// program as submitted (advisory; POST /v1/lint for the full
	// report form).
	Diagnostics []sqo.LintFinding `json:"diagnostics,omitempty"`
	CacheHit    bool              `json:"cache_hit"`
	OptimizeMS  float64           `json:"optimize_ms"`
}

// compiled is one entry of the rewrite cache, keyed by patternKey: the
// optimizer's outcome for a program at a goal binding pattern (optimize,
// view creation), or the query prepared for that pattern (query). The key
// names no dataset, and an entry keeps none alive: a Prepared keeps the
// plans of its last run, which hold nothing of that run's snapshot.
type compiled struct {
	res  *sqo.Result   // nil in a query entry that asked for no optimization
	prep *sqo.Prepared // nil in an optimize entry
}

// The rewrites a cache miss runs, as variables so that a test can count
// them.
var (
	optimizeProgram = sqo.OptimizeCtx
	prepareQuery    = sqo.Prepare
)

// parseRequest parses a request's program, which must declare a query,
// and, when withICs, its integrity constraints.
func parseRequest(programSrc, icsSrc string, withICs bool) (*sqo.Program, []sqo.IC, error) {
	prog, err := sqo.ParseProgram(programSrc)
	if err != nil {
		return nil, nil, &requestError{status: http.StatusBadRequest, code: "parse_error", msg: fmt.Sprintf("parsing program: %v", err)}
	}
	if prog.Query == "" {
		return nil, nil, &requestError{status: http.StatusBadRequest, code: "bad_request", msg: "program has no query declaration ('?- pred.')"}
	}
	if !withICs {
		return prog, nil, nil
	}
	ics, err := sqo.ParseICs(icsSrc)
	if err != nil {
		return nil, nil, &requestError{status: http.StatusBadRequest, code: "parse_error", msg: fmt.Sprintf("parsing ics: %v", err)}
	}
	return prog, ics, nil
}

// optimizeCached hashes a parsed request and rewrites it through the
// cache. The entry is shared by every goal of the request's binding
// pattern, so the outcome returned carries the request's own goal.
func (s *Server) optimizeCached(ctx context.Context, prog *sqo.Program, ics []sqo.IC) (*sqo.Result, bool, error) {
	opts := sqo.DefaultOptions()
	c, hit, err := s.cache.GetOrCompute(ctx, patternKey(prog, ics, opts, "optimize"), func() (*compiled, error) {
		res, err := optimizeProgram(ctx, prog, ics, opts)
		if err != nil {
			return nil, err
		}
		return &compiled{res: res}, nil
	})
	if err != nil {
		return nil, hit, asRequestError(err, "optimize_error")
	}
	res, withGoal := *c.res, *c.res.Program
	withGoal.Goal = prog.Goal
	res.Program = &withGoal
	return &res, hit, nil
}

// prepareCached parses a query and looks its prepared form up in the
// cache: one key, one lookup. Only a miss optimizes (when asked to) and
// prepares, and the entry serves every goal of the request's binding
// pattern; the caller runs it for the returned program's goal.
func (s *Server) prepareCached(ctx context.Context, programSrc, icsSrc string, optimize bool, opts sqo.EvalOptions) (*sqo.Program, *compiled, bool, error) {
	prog, ics, err := parseRequest(programSrc, icsSrc, optimize)
	if err != nil {
		return nil, nil, false, err
	}
	extra := fmt.Sprintf("query\x00%t\x00%s\x00%s", optimize, opts.Magic, opts.Elim)
	c, hit, err := s.cache.GetOrCompute(ctx, patternKey(prog, ics, sqo.DefaultOptions(), extra), func() (*compiled, error) {
		c, p := &compiled{}, prog
		if optimize {
			res, err := optimizeProgram(ctx, prog, ics, sqo.DefaultOptions())
			if err != nil {
				return nil, asRequestError(err, "optimize_error")
			}
			c.res, p = res, res.Program
		}
		var err error
		if c.prep, err = prepareQuery(p, opts); err != nil {
			return nil, err
		}
		return c, nil
	})
	if err != nil {
		return nil, nil, hit, asRequestError(err, "eval_error")
	}
	return prog, c, hit, nil
}

// asRequestError maps a failed rewrite to its HTTP error: a requestError
// as it is, the context's end as timeout or canceled, anything else as a
// 422 under code.
func asRequestError(err error, code string) error {
	var re *requestError
	if errors.As(err, &re) {
		return err
	}
	if ctxErr := classifyCtxErr(err); ctxErr != nil {
		return ctxErr
	}
	return &requestError{status: http.StatusUnprocessableEntity, code: code, msg: err.Error()}
}

// requestError carries an HTTP status through the handler helpers.
type requestError struct {
	status int
	code   string
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func classifyCtxErr(err error) *requestError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &requestError{status: http.StatusGatewayTimeout, code: "timeout", msg: "deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &requestError{status: 499, code: "canceled", msg: "request canceled"}
	}
	return nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req optimizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding JSON: %v", err)
		return
	}
	release, ok := s.admit()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", "too many in-flight requests (limit %d)", s.cfg.MaxInflight)
		return
	}
	defer release()

	start := time.Now()
	prog, ics, err := parseRequest(req.Program, req.ICs, true)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	res, hit, err := s.optimizeCached(r.Context(), prog, ics)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, optimizeResponse{
		Program:     sqo.FormatProgram(res.Program),
		Satisfiable: res.Satisfiable,
		Explain:     sqo.Explain(res),
		Warnings:    res.Warnings,
		Diagnostics: s.lintDiagnostics(r.Context(), prog, ics),
		CacheHit:    hit,
		OptimizeMS:  float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *Server) writeRequestError(w http.ResponseWriter, err error) {
	var re *requestError
	if errors.As(err, &re) {
		switch re.code {
		case "timeout":
			s.metrics.QueryTimeouts.Add(1)
		case "canceled":
			s.metrics.QueryCancels.Add(1)
		}
		writeError(w, re.status, re.code, "%s", re.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, "internal", "%v", err)
}

// --- query ------------------------------------------------------------

type queryRequest struct {
	// Program is datalog source: rules plus a '?- pred.' declaration.
	Program string `json:"program"`
	// ICs are integrity constraints in source syntax.
	ICs string `json:"ics,omitempty"`
	// Dataset names a registered dataset to evaluate against.
	Dataset string `json:"dataset,omitempty"`
	// Facts are additional inline ground facts (source syntax); they
	// are combined with the dataset when both are present.
	Facts string `json:"facts,omitempty"`
	// TimeoutMS bounds evaluation wall-clock (0 → server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Optimize selects whether to run the Levy–Sagiv rewrite before
	// evaluating (default true; false evaluates the program as sent,
	// for A/B measurements).
	Optimize *bool `json:"optimize,omitempty"`
	// MaxTuples overrides the derived-tuple budget (0 → server
	// default).
	MaxTuples int64 `json:"max_tuples,omitempty"`
	// IncludeRoundDeltas opts into per-round delta sizes in the
	// response (round → relation → tuples derived that round).
	IncludeRoundDeltas bool `json:"include_round_deltas,omitempty"`
	// Magic controls the magic-sets demand rewrite for goal queries
	// (`?- pred(a, Y).`): "auto" (the default — rewrite when the goal
	// binds an argument), "on", or "off". Answers are identical in
	// every mode; only the portion of the fixpoint computed differs.
	Magic string `json:"magic,omitempty"`
	// Elim controls bounded-recursion elimination: "auto" (the default
	// — compile provably bounded fixpoints into flat joins), "on", or
	// "off". Answers are identical in every mode; only the evaluation
	// strategy differs. The boundedness verdict is part of the query's
	// prepared entry in the rewrite cache, computed once per binding
	// pattern: the goal's constants do not take an entry each.
	Elim string `json:"elim,omitempty"`
}

type queryStats struct {
	Rounds        int   `json:"rounds"`
	TuplesDerived int64 `json:"tuples_derived"`
	RuleFirings   int64 `json:"rule_firings"`
	JoinProbes    int64 `json:"join_probes"`
}

type queryResponse struct {
	Query       string   `json:"query"`
	Answers     []string `json:"answers"`
	AnswerCount int      `json:"answer_count"`
	Satisfiable bool     `json:"satisfiable"`
	Optimized   bool     `json:"optimized"`
	CacheHit    bool     `json:"cache_hit"`
	// Magic reports whether this evaluation went through the
	// magic-sets demand rewrite (false for unbound or absent goals,
	// magic "off", or rewrite fallback).
	Magic bool `json:"magic"`
	// Elim reports whether this evaluation went through the
	// bounded-recursion elimination rewrite (false when no predicate
	// is provably bounded, or elim "off").
	Elim  bool       `json:"elim"`
	Stats queryStats `json:"stats"`
	// RoundDeltas is present only when the request set
	// include_round_deltas: element i maps relation → tuples newly
	// derived in fixpoint round i (relations with no new tuples are
	// omitted; a fixpoint-detection round is an empty object).
	RoundDeltas []map[string]int64 `json:"round_deltas,omitempty"`
	OptimizeMS  float64            `json:"optimize_ms"`
	EvalMS      float64            `json:"eval_ms"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding JSON: %v", err)
		return
	}
	if req.Dataset == "" && req.Facts == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "one of dataset or facts is required")
		return
	}
	magicMode, err := sqo.ParseMagicMode(req.Magic)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	elimMode, err := sqo.ParseElimMode(req.Elim)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}

	// Resolve the database before admission: cheap, and 404s should
	// not consume evaluation slots.
	var db *sqo.DB
	if req.Dataset != "" {
		ds, ok := s.datasets.get(req.Dataset)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown_dataset", "dataset %q is not registered", req.Dataset)
			return
		}
		db = ds.snapshot()
	}
	if req.Facts != "" {
		facts, err := sqo.ParseFacts(req.Facts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse_error", "parsing facts: %v", err)
			return
		}
		arity := map[string]int{}
		if db != nil {
			for _, pred := range db.Preds() {
				arity[pred] = db.Lookup(pred).Arity
			}
		}
		if err := arityConflict(arity, facts); err != nil {
			s.writeRequestError(w, err)
			return
		}
		if db == nil {
			db = sqo.NewDBFrom(facts)
		} else {
			// Copy-on-extend: registered datasets are shared across
			// requests and must not observe per-request facts.
			db = db.Clone()
			db.AddFacts(facts)
		}
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	release, ok := s.admit()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded", "too many in-flight requests (limit %d)", s.cfg.MaxInflight)
		return
	}
	defer release()

	// The request context is the root: client disconnects propagate
	// into the fixpoint. The timeout rides on top of it.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	doOptimize := req.Optimize == nil || *req.Optimize
	evalOpts := sqo.DefaultEvalOptions()
	evalOpts.MaxTuples = s.cfg.MaxTuples
	evalOpts.Magic, evalOpts.Elim = magicMode, elimMode
	if req.MaxTuples > 0 {
		evalOpts.MaxTuples = req.MaxTuples
	}

	optStart := time.Now()
	prog, c, cacheHit, err := s.prepareCached(ctx, req.Program, req.ICs, doOptimize, evalOpts)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	optimizeMS := float64(time.Since(optStart).Microseconds()) / 1000

	evalStart := time.Now()
	result, stats, err := c.prep.Run(ctx, db, prog.Goal, evalOpts)
	evalMS := float64(time.Since(evalStart).Microseconds()) / 1000
	if err != nil {
		if ctxErr := classifyCtxErr(err); ctxErr != nil {
			s.writeRequestError(w, ctxErr)
			return
		}
		if errors.Is(err, sqo.ErrBudget) {
			s.metrics.QueryBudgets.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "budget_exceeded", "%v", err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "eval_error", "%v", err)
		return
	}
	s.metrics.AddStats(stats)
	if stats.MagicApplied {
		s.metrics.EvalMagic.Add(1)
	}
	if stats.ElimApplied {
		s.metrics.EvalElim.Add(1)
	}

	resp := queryResponse{
		Query:       prog.Query,
		Answers:     []string{}, // written by writeAnswers
		AnswerCount: result.Len(),
		Satisfiable: c.res == nil || c.res.Satisfiable,
		Optimized:   doOptimize,
		CacheHit:    cacheHit,
		Magic:       stats.MagicApplied,
		Elim:        stats.ElimApplied,
		Stats: queryStats{
			Rounds:        stats.Iterations,
			TuplesDerived: stats.TuplesDerived,
			RuleFirings:   stats.RuleFirings,
			JoinProbes:    stats.JoinProbes,
		},
		OptimizeMS: optimizeMS,
		EvalMS:     evalMS,
	}
	if req.IncludeRoundDeltas {
		resp.RoundDeltas = stats.RoundDeltas()
	}
	writeAnswers(w, resp, result, sqo.ByString)
}
