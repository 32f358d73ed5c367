package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sqo "repro"
)

// Metrics is the server's instrumentation registry: monotonic
// counters, point-in-time gauges, and per-endpoint latency histograms,
// exposed in the Prometheus text format at /metrics. Everything is
// hand-rolled on sync/atomic — the repository takes no dependencies.
type Metrics struct {
	// CacheStats reads the rewrite cache's own counters at scrape time
	// (set by New).
	CacheStats func() CacheStats

	// RequestMemoHits counts /v1/query and /v1/optimize requests whose
	// text the request memo already held: parsed and keyed once.
	RequestMemoHits atomic.Int64

	// Admission control.
	InflightEvals       atomic.Int64 // gauge: evaluations running right now
	AdmissionRejections atomic.Int64 // fast-429s

	// Engine work, summed over completed evaluations.
	EvalRounds    atomic.Int64
	TuplesDerived atomic.Int64
	RuleFirings   atomic.Int64
	JoinProbes    atomic.Int64

	// Interned-base outcomes of completed query evaluations: a build
	// interned the database's facts (the first query on a snapshot, or
	// any query with per-request facts), a reuse interned none. Their
	// ratio is how often the per-snapshot base pays off.
	EDBBaseBuilds atomic.Int64
	EDBBaseReuses atomic.Int64

	// EvalMagic counts completed query evaluations that went through
	// the magic-sets demand rewrite (goal-directed point queries).
	EvalMagic atomic.Int64

	// EvalElim counts completed query evaluations that went through
	// bounded-recursion elimination (a provably bounded fixpoint
	// compiled into flat joins).
	EvalElim atomic.Int64

	// AnswerMemoHits counts queries answered from their snapshot's answer
	// memo (Stats.MemoHit): nothing was evaluated, so they add nothing to
	// the engine-work counters above; each counts as a base reuse.
	AnswerMemoHits atomic.Int64

	// Request outcomes.
	QueryTimeouts atomic.Int64
	QueryCancels  atomic.Int64
	QueryBudgets  atomic.Int64
	panics        atomic.Int64 // handler panics contained by Server.contain

	// Static analysis.
	LintRuns     atomic.Int64
	LintFindings atomic.Int64

	Datasets atomic.Int64 // gauge: registered datasets

	// Mutable datasets and incremental maintenance.
	Views       atomic.Int64 // gauge: live materialized views
	FactUpdates atomic.Int64 // dataset mutations applied (facts add/delete, PUT replace)
	ViewApplies atomic.Int64 // incremental maintenance passes pushed to views

	// Durable store instrumentation; both are set once before the
	// handler serves (nil / zero when running in-memory). StoreStats
	// reads the store's live counters at scrape time.
	StoreStats      func() (walAppends, walBytes, checkpoints, checkpointFailures int64)
	RecoverySeconds float64

	mu        sync.Mutex
	requests  map[statusKey]*int64  // endpoint×code → count
	latencies map[string]*histogram // endpoint → latency histogram
	started   time.Time
}

type statusKey struct {
	endpoint string
	code     int
}

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

type histogram struct {
	counts [nBuckets + 1]atomic.Int64 // one per bucket plus +Inf
	sumNs  atomic.Int64
	total  atomic.Int64
}

const nBuckets = 12 // len(latencyBuckets); array length must be constant

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.total.Add(1)
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:  map[statusKey]*int64{},
		latencies: map[string]*histogram{},
		started:   time.Now(),
	}
}

// ObserveRequest records one finished HTTP request.
func (m *Metrics) ObserveRequest(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	c, ok := m.requests[statusKey{endpoint, code}]
	if !ok {
		c = new(int64)
		m.requests[statusKey{endpoint, code}] = c
	}
	h, ok := m.latencies[endpoint]
	if !ok {
		h = &histogram{}
		m.latencies[endpoint] = h
	}
	m.mu.Unlock()
	atomic.AddInt64(c, 1)
	h.observe(d)
}

// AddStats folds one query's engine counters into the registry; a memo
// hit's are the work of an earlier query, so it counts only the hit.
func (m *Metrics) AddStats(st *sqo.Stats) {
	if st.MemoHit {
		m.AnswerMemoHits.Add(1)
		m.EDBBaseReuses.Add(1)
		return
	}
	if st.MagicApplied {
		m.EvalMagic.Add(1)
	}
	if st.ElimApplied {
		m.EvalElim.Add(1)
	}
	m.EvalRounds.Add(int64(st.Iterations))
	m.TuplesDerived.Add(st.TuplesDerived)
	m.RuleFirings.Add(st.RuleFirings)
	m.JoinProbes.Add(st.JoinProbes)
	if st.EDBRowsInterned > 0 {
		m.EDBBaseBuilds.Add(1)
	} else {
		m.EDBBaseReuses.Add(1)
	}
}

// ServeHTTP renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	var cs CacheStats
	if m.CacheStats != nil {
		cs = m.CacheStats()
	}
	counter("sqod_cache_hits_total", "Optimized-program cache hits.", cs.Hits)
	counter("sqod_cache_misses_total", "Optimized-program cache misses (fresh rewrites).", cs.Misses)
	counter("sqod_cache_evictions_total", "LRU evictions from the optimized-program cache.", cs.Evictions)
	counter("sqod_cache_coalesced_total", "Requests coalesced onto an in-flight identical rewrite.", cs.Coalesced)
	gauge("sqod_cache_entries", "Optimized programs currently cached.", int64(cs.Size))
	counter("sqod_request_memo_hits_total", "Query and optimize requests whose program and ics text were parsed and keyed before.", m.RequestMemoHits.Load())

	gauge("sqod_inflight_evals", "Evaluations currently running (admission queue depth).", m.InflightEvals.Load())
	counter("sqod_admission_rejections_total", "Requests rejected with 429 by admission control.", m.AdmissionRejections.Load())

	counter("sqod_eval_rounds_total", "Fixpoint rounds executed across all evaluations.", m.EvalRounds.Load())
	counter("sqod_tuples_derived_total", "Distinct IDB tuples derived across all evaluations.", m.TuplesDerived.Load())
	counter("sqod_rule_firings_total", "Rule firings across all evaluations.", m.RuleFirings.Load())
	counter("sqod_join_probes_total", "Join probes across all evaluations.", m.JoinProbes.Load())

	counter("sqod_edb_base_builds_total", "Query evaluations that interned facts: the first query on a snapshot whose update added facts, or one with per-request facts.", m.EDBBaseBuilds.Load())
	counter("sqod_edb_base_reuses_total", "Queries that interned no fact: they reused their snapshot's interned base (or its answer memo), or derived it from the previous snapshot's by copying rows.", m.EDBBaseReuses.Load())
	counter("sqod_answer_memo_hits_total", "Queries answered from their snapshot's answer memo, evaluating nothing.", m.AnswerMemoHits.Load())

	counter("sqod_eval_magic_total", "Queries evaluated via the magic-sets demand rewrite.", m.EvalMagic.Load())
	counter("sqod_eval_elim_total", "Queries evaluated via bounded-recursion elimination.", m.EvalElim.Load())

	counter("sqod_query_timeouts_total", "Queries stopped by deadline expiry.", m.QueryTimeouts.Load())
	counter("sqod_query_cancels_total", "Queries stopped by client cancellation.", m.QueryCancels.Load())
	counter("sqod_query_budget_exceeded_total", "Queries stopped by the derived-tuple budget.", m.QueryBudgets.Load())
	counter("sqod_panics_total", "Handler panics answered with 500 internal_error.", m.panics.Load())

	counter("sqod_lint_runs_total", "Lint runs (POST /v1/lint plus registration diagnostics).", m.LintRuns.Load())
	counter("sqod_lint_findings_total", "Findings emitted across all lint runs.", m.LintFindings.Load())

	gauge("sqod_datasets", "Registered fact datasets.", m.Datasets.Load())
	gauge("sqod_views", "Live materialized views.", m.Views.Load())
	counter("sqod_fact_updates_total", "Dataset mutations applied.", m.FactUpdates.Load())
	counter("sqod_view_applies_total", "Incremental maintenance passes pushed to views.", m.ViewApplies.Load())
	if m.StoreStats != nil {
		appends, bytes, checkpoints, ckptFailures := m.StoreStats()
		counter("sqod_wal_appends_total", "Operations appended to the write-ahead log.", appends)
		counter("sqod_wal_bytes_total", "Bytes appended to the write-ahead log (framing included).", bytes)
		counter("sqod_checkpoints_total", "Checkpoints written.", checkpoints)
		counter("sqod_checkpoint_failures_total", "Automatic checkpoints that failed (the append was acknowledged).", ckptFailures)
		fmt.Fprintf(&b, "# HELP sqod_recovery_seconds Wall-clock seconds spent recovering durable state at startup.\n# TYPE sqod_recovery_seconds gauge\nsqod_recovery_seconds %.6f\n",
			m.RecoverySeconds)
	}
	fmt.Fprintf(&b, "# HELP sqod_uptime_seconds Seconds since the server started.\n# TYPE sqod_uptime_seconds gauge\nsqod_uptime_seconds %.3f\n",
		time.Since(m.started).Seconds())

	m.mu.Lock()
	reqKeys := make([]statusKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	latKeys := make([]string, 0, len(m.latencies))
	for k := range m.latencies {
		latKeys = append(latKeys, k)
	}
	m.mu.Unlock()
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	sort.Strings(latKeys)

	b.WriteString("# HELP sqod_requests_total HTTP requests served.\n# TYPE sqod_requests_total counter\n")
	for _, k := range reqKeys {
		m.mu.Lock()
		v := atomic.LoadInt64(m.requests[k])
		m.mu.Unlock()
		fmt.Fprintf(&b, "sqod_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, v)
	}

	b.WriteString("# HELP sqod_request_seconds HTTP request latency.\n# TYPE sqod_request_seconds histogram\n")
	for _, k := range latKeys {
		m.mu.Lock()
		h := m.latencies[k]
		m.mu.Unlock()
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(&b, "sqod_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", k, ub, cum)
		}
		cum += h.counts[nBuckets].Load()
		fmt.Fprintf(&b, "sqod_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", k, cum)
		fmt.Fprintf(&b, "sqod_request_seconds_sum{endpoint=%q} %.6f\n", k, float64(h.sumNs.Load())/1e9)
		fmt.Fprintf(&b, "sqod_request_seconds_count{endpoint=%q} %d\n", k, h.total.Load())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
