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
// which maintains the answers incrementally (DRed) under
// the same admission control and deadline as a query.
//
// Answers are written once. A query's answers reach its handler as an
// interned result (sqo.QueryResult), a view's as a copy of its rows taken
// under the view's lock, and writeAnswers streams either through
// internal/jsonresp: the envelope's members appended by hand, each
// distinct constant rendered and JSON-escaped once, rows ordered by
// constant rank, the body leaving in 64 KB chunks, or in one Write with
// its Content-Length when it fits one. A result an answer memo holds
// keeps its rendered answers array on its first memo hit when that fits
// one chunk, and later hits copy it. The body is byte for byte what
// json.Encoder with SetIndent("", "  ") wrote when the envelope held a
// []string of Tuple.String renderings (answers_test.go keeps that path
// as the oracle); /v1/query orders by Tuple.String (sqo.ByString) and view
// reads by Tuple.Key (sqo.ByKey), both through Result.Ordered; and no
// dataset or view mutex is held while bytes go to a ResponseWriter, so a
// stalled client holds up only itself.
//
// A JSON request body (query, optimize, lint, view creation) is read
// whole and scanned by hand (decode.go); one the scanner declines goes
// to json.Decoder on the same bytes, so every answer, a 400's text
// included, is encoding/json's.
//
// Every request takes one path. A handler returns its failure, and fail
// alone turns an error into its status, code and counters; a request
// that evaluates, rewrites or lints runs inside admitted, the one
// admission slot and deadline; and each mutation is one operation
// (ops.go) that its handler calls with the store and recovery calls
// without.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	sqo "repro"
	"repro/internal/jsonresp"
	"repro/internal/store"
)

// Config tunes the server; the zero value is usable (see defaults in
// New).
type Config struct {
	// CacheSize bounds the rewrite cache (optimized programs and
	// prepared queries), and the request memo in front of it (the
	// parses and keys of request texts) to as many. Default: 128.
	CacheSize int
	// DefaultTimeout bounds every admitted request that sets no
	// timeout_ms: a query, a view creation, a lint, an optimize, and
	// every dataset mutation, the maintenance of its views included.
	// Default: 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts. Default: 5m.
	MaxTimeout time.Duration
	// MaxTuples is the per-query derived-tuple budget (0 = unlimited).
	MaxTuples int64
	// EnablePprof registers net/http/pprof handlers under /debug/pprof/
	// on the server's mux. The profiles expose internals (goroutine
	// stacks, heap contents), so only enable it where the listen
	// address is trusted.
	EnablePprof bool
	// Logger receives structured request logs; default slog.Default().
	Logger *slog.Logger
	// Store, when set, makes the mutable-dataset surface durable: every
	// dataset/fact/view mutation is appended to its write-ahead log
	// before the request is acknowledged. Nil (the default) keeps the
	// datasets in memory only.
	Store *store.Store
	// Recovered carries the operations Store recovered at open; New
	// replays them in order, the WAL tail through the incremental
	// view-maintenance path, before it returns.
	Recovered *store.Recovered
}

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 8 << 20

// Server is the sqod service. Create with New, expose via Handler.
type Server struct {
	cfg     Config
	log     *slog.Logger
	metrics *Metrics
	cache   *lru[*compiled]
	// requests is the request memo: a request text's parse and cache
	// key (parse), bounded by CacheSize like the cache.
	requests *lru[*parsed]
	sem      chan struct{} // admission slots: 2×GOMAXPROCS
	store    *store.Store  // nil when running in-memory

	datasets *datasetStore
}

// New returns a configured server.
func New(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	m := NewMetrics()
	c := newLRU[*compiled](cfg.CacheSize)
	m.CacheStats = c.Stats
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		metrics:  m,
		cache:    c,
		requests: newLRU[*parsed](cfg.CacheSize),
		sem:      make(chan struct{}, 2*runtime.GOMAXPROCS(0)),
		store:    cfg.Store,
		datasets: &datasetStore{byName: map[string]*dataset{}},
	}
	if s.store != nil {
		m.StoreStats = func() (int64, int64, int64, int64) {
			c := s.store.Counters()
			return c.Appends, c.Bytes, c.Checkpoints, c.CheckpointFailures
		}
		if cfg.Recovered != nil {
			m.RecoverySeconds = s.restore(cfg.Recovered).Seconds()
		}
	}
	return s
}

// Handler returns the server's routed HTTP handler with request
// logging and latency instrumentation applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.instrument("metrics", s.metrics.ServeHTTP))
	mux.Handle("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		// Pure liveness: true as long as the process serves HTTP.
		// Readiness is /readyz.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.Handle("GET /readyz", s.instrument("readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// A store that failed stop takes no write until a restart
		// recovers it from disk; reads go on.
		if s.store != nil && s.store.Failed() != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "store failed")
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	mux.Handle("PUT /v1/datasets/{name}", s.api("dataset_put", s.handleDatasetCreate))
	mux.Handle("POST /v1/datasets/{name}", s.api("dataset_post", s.handleDatasetCreate))
	mux.Handle("DELETE /v1/datasets/{name}", s.api("dataset_delete", s.handleDatasetDelete))
	mux.Handle("GET /v1/datasets", s.api("dataset_list", s.handleDatasetList))
	mux.Handle("POST /v1/datasets/{name}/facts", s.api("facts_add", s.handleFacts))
	mux.Handle("DELETE /v1/datasets/{name}/facts", s.api("facts_delete", s.handleFacts))
	mux.Handle("POST /v1/datasets/{name}/views/{view}", s.api("view_create", s.handleViewCreate))
	mux.Handle("GET /v1/datasets/{name}/views/{view}", s.api("view_get", s.handleViewGet))
	mux.Handle("DELETE /v1/datasets/{name}/views/{view}", s.api("view_delete", s.handleViewDelete))
	mux.Handle("POST /v1/optimize", s.api("optimize", s.handleOptimize))
	mux.Handle("POST /v1/lint", s.api("lint", s.handleLint))
	mux.Handle("POST /v1/query", s.api("query", s.handleQuery))
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

// api routes an endpoint whose handler returns its failure for fail to
// answer.
func (s *Server) api(endpoint string, h func(http.ResponseWriter, *http.Request) error) http.Handler {
	return s.instrument(endpoint, func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			s.fail(w, err)
		}
	})
}

// instrument wraps a handler with body limiting, panic containment,
// latency observation, and one structured log line per request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.contain(endpoint, sw, r, h)
		elapsed := time.Since(start)
		s.metrics.ObserveRequest(endpoint, sw.code, elapsed)
		// What Logger.LogAttrs does, less the stack walk for the caller's
		// PC, which only a handler with AddSource reads: the record has
		// none.
		ctx, log := context.Background(), s.log.Handler()
		if !log.Enabled(ctx, slog.LevelInfo) {
			return
		}
		rec := slog.NewRecord(time.Now(), slog.LevelInfo, "request", 0)
		rec.AddAttrs(
			slog.String("endpoint", endpoint),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Float64("dur_ms", float64(elapsed.Microseconds())/1000),
			slog.Int("bytes", sw.bytes),
			slog.String("remote", r.RemoteAddr),
		)
		_ = log.Handle(ctx, rec)
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
		writeJSON(sw, http.StatusInternalServerError, errorBody{Error: "internal error; see the server log", Code: "internal_error"})
	}()
	h(sw, r)
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeJSON writes v as json.Encoder with SetIndent("", "  ") does, in
// one Write with its Content-Length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		w.WriteHeader(status)
		return // what json.Encoder writes for a value it cannot encode: nothing
	}
	body = append(body, '\n')
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeAnswers writes one of the two envelopes that carry answers
// (queryResponse, viewResponse): a 200 whose "answers" member is the
// result's tuples in the given order, each written as Tuple.String. A
// result an answer memo holds keeps its rendered array when it is written
// the second time, if that fits one chunk, and is written from it after.
func writeAnswers(w http.ResponseWriter, envelope jsonresp.Envelope, result *sqo.QueryResult, order sqo.AnswerOrder) {
	kept, keep := result.Rendered(order)
	array := jsonresp.Write(w, http.StatusOK, envelope, kept, keep, func(a *jsonresp.Array) {
		result.Ordered(order, jsonresp.AppendEscaped, a.Tuple)
	})
	if array != nil {
		result.Keep(order, array)
	}
}

// The members of an answer envelope are appended as the indenting
// encoder writes them: appendString a string, appendIndented a nested
// value at depth 1.

func appendString(b []byte, s string) []byte {
	return append(jsonresp.AppendEscaped(append(b, '"'), s), '"')
}

func appendIndented(b []byte, v any) []byte {
	nested, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		panic(err) // round deltas and lint findings always encode
	}
	return append(b, nested...)
}

// requestError is a failure whose answer is decided where it arises: a
// malformed request, a missing dataset or view, a name already taken, a
// program the optimizer refuses, a full server.
type requestError struct {
	status int
	code   string
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func errorf(status int, code, format string, args ...any) error {
	return &requestError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

func parseError(what string, err error) error {
	return errorf(http.StatusBadRequest, "parse_error", "parsing %s: %v", what, err)
}

func unknownDataset(name string) error {
	return errorf(http.StatusNotFound, "unknown_dataset", "dataset %q is not registered", name)
}

func unknownView(name, dataset string) error {
	return errorf(http.StatusNotFound, "unknown_view", "view %q is not registered on dataset %q", name, dataset)
}

// storeError is a failed write-ahead append. The mutation was NOT
// applied: durability is part of the acknowledgment contract, so a store
// failure fails the request.
type storeError struct {
	op, name string
	err      error
}

func (e *storeError) Error() string { return fmt.Sprintf("durable %s failed: %v", e.op, e.err) }

// optimizeError tags a failed rewrite as a 422 optimize_error, unless
// the end of the request's context is what stopped it.
func optimizeError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	return errorf(http.StatusUnprocessableEntity, "optimize_error", "%v", err)
}

// fail answers a failed request; it is the one place an error becomes a
// status, a code and a counter tick. A requestError answers as it says
// (a 429 with Retry-After), a storeError as 500 store_error, the end of
// the request's context as 504 timeout or 499 canceled, an exhausted
// tuple budget as 422 budget_exceeded, and anything else — evaluation
// refusing or failing on the request's program — as 422 eval_error.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var re *requestError
	var se *storeError
	switch {
	case errors.As(err, &re):
		if re.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
	case errors.As(err, &se):
		s.log.Error("wal append failed", "op", se.op, "name", se.name, "err", se.err)
		re = &requestError{http.StatusInternalServerError, "store_error", se.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.QueryTimeouts.Add(1)
		re = &requestError{http.StatusGatewayTimeout, "timeout", "deadline exceeded"}
	case errors.Is(err, context.Canceled):
		s.metrics.QueryCancels.Add(1)
		re = &requestError{499, "canceled", "request canceled"}
	case errors.Is(err, sqo.ErrBudget):
		s.metrics.QueryBudgets.Add(1)
		re = &requestError{http.StatusUnprocessableEntity, "budget_exceeded", err.Error()}
	default:
		re = &requestError{http.StatusUnprocessableEntity, "eval_error", err.Error()}
	}
	writeJSON(w, re.status, errorBody{Error: re.msg, Code: re.code})
}

// admit reserves an evaluation slot, or reports failure immediately
// (fast 429) when every slot is taken. The caller must invoke
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

// admitted is the step every request that evaluates, rewrites or lints
// passes through: it runs op in an evaluation slot — failing at once
// with 429 overloaded when none is free, rather than queueing behind
// work that may never finish in time — under a context that ends at the
// timeout or when the client disconnects, whichever comes first.
func (s *Server) admitted(r *http.Request, timeout time.Duration, op func(ctx context.Context) error) error {
	release, ok := s.admit()
	if !ok {
		return errorf(http.StatusTooManyRequests, "overloaded", "too many in-flight requests (limit %d)", cap(s.sem))
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	return op(ctx)
}

// deadline is a request's timeout: its timeout_ms when set, else
// DefaultTimeout, and never more than MaxTimeout.
func (s *Server) deadline(timeoutMS int) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return min(d, s.cfg.MaxTimeout)
}

// budget resolves a request's max_tuples (0 → MaxTuples): a request may
// lower the server's derived-tuple budget but never raise it, so a view
// created live is restored under MaxTuples too.
func (s *Server) budget(maxTuples int64) int64 {
	if maxTuples <= 0 || (s.cfg.MaxTuples > 0 && maxTuples > s.cfg.MaxTuples) {
		return s.cfg.MaxTuples
	}
	return maxTuples
}

// sinceMS is the time since start in milliseconds, to the microsecond.
func sinceMS(start time.Time) float64 { return float64(time.Since(start).Microseconds()) / 1000 }

// --- datasets ---------------------------------------------------------

// handleDatasetCreate registers a dataset (PUT or POST
// /v1/datasets/{name}); the body is datalog ground facts in source
// syntax. When the name is taken, POST answers 409 and PUT replaces the
// dataset: the replacement is the add/retract batch that turns the old
// fact set into the new one, so attached materialized views survive a
// PUT and are maintained incrementally through it.
func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) error {
	facts, err := parseDatasetBody(r)
	if err != nil {
		return err
	}
	name := r.PathValue("name")
	ds, created, err := s.createDataset(s.store, name, facts)
	switch {
	case err != nil:
		return err
	case created:
		writeJSON(w, http.StatusOK, ds.describe())
		return nil
	case r.Method == http.MethodPut:
		return s.updateDataset(w, r, ds, facts, nil, true)
	}
	return errorf(http.StatusConflict, "dataset_exists", "dataset %q is already registered (PUT replaces)", name)
}

// parseDatasetBody reads a whole-dataset body (PUT, POST) as ground
// facts that use each predicate at one arity — checked here, before the
// create record can reach the WAL or the registry lock is taken, because
// building the dataset's relations panics on a mixed-arity predicate.
func parseDatasetBody(r *http.Request) ([]sqo.Atom, error) {
	facts, err := parseFactsBody(r)
	if err != nil {
		return nil, err
	}
	return facts, arityConflict(map[string]int{}, facts)
}

// handleDatasetList lists registered datasets.
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, s.datasets.list())
	return nil
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

// compiled is one entry of the rewrite cache, keyed by patternKey. It
// keeps what its requests read and not the optimizer's query forest,
// which only explains how the rewrite was built and grows as 7^k goal
// nodes (Theorem 5.1). An optimize entry, shared with view creation,
// keeps the rewritten program, its verdict, its warnings and the forest
// rendered once on the miss; a query entry keeps the query prepared for
// that pattern and the verdict. The key names no dataset, and an entry
// keeps none alive: a Prepared keeps the plans of its last run, which
// hold nothing of that run's snapshot.
type compiled struct {
	program     *sqo.Program // the rewrite, with the miss's goal; nil in a query entry
	satisfiable bool
	warnings    []string
	explain     string
	prep        *sqo.Prepared // nil in an optimize entry
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
		return nil, nil, parseError("program", err)
	}
	if prog.Query == "" {
		return nil, nil, errorf(http.StatusBadRequest, "bad_request", "program has no query declaration ('?- pred.')")
	}
	if !withICs {
		return prog, nil, nil
	}
	ics, err := sqo.ParseICs(icsSrc)
	if err != nil {
		return nil, nil, parseError("ics", err)
	}
	return prog, ics, nil
}

// parsed is what a request's text decides before any rewrite: its
// program, its integrity constraints and its rewrite-cache key.
type parsed struct {
	prog *sqo.Program
	ics  []sqo.IC
	key  string // patternKey
}

// parse parses a request's text (parseRequest) and keys it (patternKey
// with extra), or finds both in the request memo when the same text came
// before under the same extra. The memo is keyed by a SHA-256 of extra
// and the text, so it holds no request text, and it is bounded like the
// rewrite cache; a text that fails to parse is never kept. What it holds
// is shared by every request of that text, and nothing writes to it.
func (s *Server) parse(programSrc, icsSrc string, withICs bool, extra string) (*parsed, error) {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	buf = append(strconv.AppendInt(append(append(buf, extra...), 0), int64(len(programSrc)), 10), 0)
	h.Write(buf)
	io.WriteString(h, programSrc)
	io.WriteString(h, icsSrc)
	memoKey := string(h.Sum(buf[:0]))
	if p, ok := s.requests.get(memoKey); ok {
		s.metrics.RequestMemoHits.Add(1)
		return p, nil
	}
	prog, ics, err := parseRequest(programSrc, icsSrc, withICs)
	if err != nil {
		return nil, err
	}
	p := &parsed{prog: prog, ics: ics, key: patternKey(prog, ics, sqo.DefaultOptions(), extra)}
	s.requests.add(memoKey, p)
	return p, nil
}

// optimizeCached rewrites a parsed request through the cache. The entry
// is shared by every goal of the request's binding pattern, so the
// program returned carries the request's own goal.
func (s *Server) optimizeCached(ctx context.Context, p *parsed) (*compiled, *sqo.Program, bool, error) {
	c, hit, err := s.cache.GetOrCompute(ctx, p.key, func() (*compiled, error) {
		res, err := optimizeProgram(ctx, p.prog, p.ics, sqo.DefaultOptions())
		if err != nil {
			return nil, optimizeError(err)
		}
		return &compiled{program: res.Program, satisfiable: res.Satisfiable, warnings: res.Warnings, explain: sqo.Explain(res)}, nil
	})
	if err != nil {
		return nil, nil, hit, err
	}
	withGoal := *c.program
	withGoal.Goal = p.prog.Goal
	return c, &withGoal, hit, nil
}

// prepareCached parses a query and looks its prepared form up in the
// cache: one key, one lookup. Only a miss optimizes (when asked to) and
// prepares, and the entry serves every goal of the request's binding
// pattern; the caller runs it for the returned program's goal.
func (s *Server) prepareCached(ctx context.Context, programSrc, icsSrc string, optimize bool) (*sqo.Program, *compiled, bool, error) {
	extra := "query\x00false"
	if optimize {
		extra = "query\x00true"
	}
	pr, err := s.parse(programSrc, icsSrc, optimize, extra)
	if err != nil {
		return nil, nil, false, err
	}
	prog := pr.prog
	c, hit, err := s.cache.GetOrCompute(ctx, pr.key, func() (*compiled, error) {
		c, p := &compiled{satisfiable: true}, prog
		if optimize {
			res, err := optimizeProgram(ctx, prog, pr.ics, sqo.DefaultOptions())
			if err != nil {
				return nil, optimizeError(err)
			}
			c.satisfiable, p = res.Satisfiable, res.Program
		}
		var err error
		if c.prep, err = prepareQuery(p, sqo.DefaultEvalOptions()); err != nil {
			return nil, err
		}
		return c, nil
	})
	return prog, c, hit, err
}

// handleOptimize rewrites a program against its constraints (POST
// /v1/optimize), under DefaultTimeout like every admitted request.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) error {
	req, err := decode[optimizeRequest](r)
	if err != nil {
		return err
	}
	return s.admitted(r, s.deadline(0), func(ctx context.Context) error {
		start := time.Now()
		p, err := s.parse(req.Program, req.ICs, true, "optimize")
		if err != nil {
			return err
		}
		c, prog, hit, err := s.optimizeCached(ctx, p)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, optimizeResponse{
			Program:     sqo.FormatProgram(prog),
			Satisfiable: c.satisfiable,
			Explain:     c.explain,
			Warnings:    c.warnings,
			Diagnostics: s.lintDiagnostics(ctx, p.prog, p.ics),
			CacheHit:    hit,
			OptimizeMS:  sinceMS(start),
		})
		return nil
	})
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
	// MaxTuples lowers the derived-tuple budget (0 → server default;
	// a value above the server's -max-tuples is clamped to it).
	MaxTuples int64 `json:"max_tuples,omitempty"`
	// IncludeRoundDeltas opts into per-round delta sizes in the
	// response (round → relation → tuples derived that round).
	IncludeRoundDeltas bool `json:"include_round_deltas,omitempty"`
}

type queryStats struct {
	Rounds        int   `json:"rounds"`
	TuplesDerived int64 `json:"tuples_derived"`
	RuleFirings   int64 `json:"rule_firings"`
	JoinProbes    int64 `json:"join_probes"`
}

// queryResponse is /v1/query's answer. writeAnswers writes it through
// AppendHead and AppendTail, with the result's answers in place of
// Answers, which only the tests' reference encoding fills.
type queryResponse struct {
	Query       string   `json:"query"`
	Answers     []string `json:"answers"`
	AnswerCount int      `json:"answer_count"`
	Satisfiable bool     `json:"satisfiable"`
	Optimized   bool     `json:"optimized"`
	CacheHit    bool     `json:"cache_hit"`
	// Magic reports whether this evaluation went through the
	// magic-sets demand rewrite (false for unbound or absent goals, or
	// rewrite fallback).
	Magic bool `json:"magic"`
	// Elim reports whether this evaluation went through the
	// bounded-recursion elimination rewrite (false when no predicate
	// is provably bounded).
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

func (q queryResponse) AppendHead(b []byte) []byte {
	b = appendString(append(b, "{\n  \"query\": "...), q.Query)
	return append(b, ",\n  \"answers\": "...)
}

func (q queryResponse) AppendTail(b []byte) []byte {
	b = strconv.AppendInt(append(b, ",\n  \"answer_count\": "...), int64(q.AnswerCount), 10)
	b = strconv.AppendBool(append(b, ",\n  \"satisfiable\": "...), q.Satisfiable)
	b = strconv.AppendBool(append(b, ",\n  \"optimized\": "...), q.Optimized)
	b = strconv.AppendBool(append(b, ",\n  \"cache_hit\": "...), q.CacheHit)
	b = strconv.AppendBool(append(b, ",\n  \"magic\": "...), q.Magic)
	b = strconv.AppendBool(append(b, ",\n  \"elim\": "...), q.Elim)
	b = strconv.AppendInt(append(b, ",\n  \"stats\": {\n    \"rounds\": "...), int64(q.Stats.Rounds), 10)
	b = strconv.AppendInt(append(b, ",\n    \"tuples_derived\": "...), q.Stats.TuplesDerived, 10)
	b = strconv.AppendInt(append(b, ",\n    \"rule_firings\": "...), q.Stats.RuleFirings, 10)
	b = strconv.AppendInt(append(b, ",\n    \"join_probes\": "...), q.Stats.JoinProbes, 10)
	b = append(b, "\n  }"...)
	if len(q.RoundDeltas) > 0 {
		b = appendIndented(append(b, ",\n  \"round_deltas\": "...), q.RoundDeltas)
	}
	b = jsonresp.AppendFloat(append(b, ",\n  \"optimize_ms\": "...), q.OptimizeMS)
	b = jsonresp.AppendFloat(append(b, ",\n  \"eval_ms\": "...), q.EvalMS)
	return append(b, "\n}\n"...)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	req, err := decode[queryRequest](r)
	if err != nil {
		return err
	}
	if req.Dataset == "" && req.Facts == "" {
		return errorf(http.StatusBadRequest, "bad_request", "one of dataset or facts is required")
	}

	// Resolve the database before admission: cheap, and 404s should
	// not consume evaluation slots.
	var db *sqo.DB
	if req.Dataset != "" {
		ds, err := s.datasets.get(req.Dataset)
		if err != nil {
			return err
		}
		db = ds.snapshot()
	}
	if req.Facts != "" {
		facts, err := sqo.ParseFacts(req.Facts)
		if err != nil {
			return parseError("facts", err)
		}
		arity := map[string]int{}
		if db != nil {
			for _, pred := range db.Preds() {
				arity[pred] = db.Lookup(pred).Arity
			}
		}
		if err := arityConflict(arity, facts); err != nil {
			return err
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

	doOptimize := req.Optimize == nil || *req.Optimize
	evalOpts := sqo.DefaultEvalOptions()
	evalOpts.MaxTuples = s.budget(req.MaxTuples)
	return s.admitted(r, s.deadline(req.TimeoutMS), func(ctx context.Context) error {
		optStart := time.Now()
		prog, c, cacheHit, err := s.prepareCached(ctx, req.Program, req.ICs, doOptimize)
		if err != nil {
			return err
		}
		optimizeMS := sinceMS(optStart)

		evalStart := time.Now()
		result, stats, err := c.prep.Run(ctx, db, prog.Goal, evalOpts)
		evalMS := sinceMS(evalStart)
		if err != nil {
			return err
		}
		s.metrics.AddStats(stats)

		resp := queryResponse{
			Query:       prog.Query,
			Answers:     []string{}, // written by writeAnswers
			AnswerCount: result.Len(),
			Satisfiable: c.satisfiable,
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
		return nil
	})
}
