package main

import (
	"math"
	"sort"
)

// Workload names; later issues refer to these.
const (
	wServePoint   = "serve-point"
	wServeMixed   = "serve-mixed"
	wEvalFixpoint = "eval-fixpoint"
	wOptimizeCold = "optimize-cold"
)

type workloadSpec struct {
	Name string
	Why  string // one line, goes to BENCHMARK.json
}

var workloads = []workloadSpec{
	{wServePoint, "HTTP point queries over a 32-constant hot set: rewrite cache always hits, fixpoints are tiny, so server, parser, magic and eval's fixed cost dominate and qtree does nothing"},
	{wServeMixed, "durable sqod with a live view: point queries over 2000 constants (cache thrashes), full fixpoints, paired fact updates incl. DRed cascades, view reads, lint; writes beside reads"},
	{wEvalFixpoint, "in-process QueryCtx over five optimizer-emitted programs, no HTTP or parsing: eval is at least 90% of wall, serving-path work must show nothing"},
	{wOptimizeCold, "cold compile of 27 programs (parse, cache key, query tree, elim, magic, lint, render), no EDB: compile time is the price of run-time gains, eval does nothing"},
}

// metricSpec describes one metric. Gated end-to-end metrics carry the
// bound by which they may worsen; every workload produces each of
// them. Everything else is reported by the traced run.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // regression bound as a share of the baseline median; 0 = none
	Exact  bool    // a count that must repeat bit-identically for one seed
	Moves  string  // which end-to-end metric it should move, on which workload
}

// endToEnd is what the driver gates: metrics every workload produces,
// measured with tracing off. query_* is the latency of the workload's
// query operation: an HTTP point query on the serving workloads, one
// QueryCtx call on eval-fixpoint, one cold compile on optimize-cold (on
// these two the percentiles are taken over the programs, see
// passStats.report). Timings are at nominal host speed (calibrate.go).
//
// The bounds are what this host can resolve, not what one would wish.
// It shares its two cores with neighbours: as measured, ten runs with
// ten seeds spread by 3% of the median (interquartile) in a quiet hour,
// by 10-22% in a noisy one, and by a quarter where the driver ran them.
// Divided by the host factor the same runs spread by 2-6%, which is
// within a third of the contract's ceiling of 0.25 and of nothing
// smaller. The high-water mark of a 20 MB Go process moves by 1-2 MB
// with the collector's pacing (interquartile up to 10%), so memory has
// the same bound.
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// scoped are end-to-end metrics that exist on some workloads only. The
// driver's contract wants every gated metric from every workload, so
// these ride in the per-layer list (no driver bound); -compare still
// judges them by the bounds here.
var scoped = []metricSpec{
	{Name: "update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Moves: "serve-mixed: add/retract acknowledged = WAL-appended + views maintained"},
	{Name: "update_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Moves: "serve-mixed"},
	{Name: "view_read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Moves: "serve-mixed"},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "serve-mixed: restart after SIGKILL until /readyz"},
	{Name: "eval_wall_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "eval-fixpoint: one pass over the program set, lower quartile over passes"},
	{Name: "optimize_wall_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "optimize-cold: one pass over the program set, lower quartile over passes"},
	{Name: "failed_share", Unit: "share", Better: "lower", Moves: "all: failed or wrong operations over attempted; must stay 0"},
}

const (
	toQueryPoint = "query_p50_ms @ serve-point"
	toOptimize   = "optimize_wall_s @ optimize-cold; query_p95_ms @ serve-mixed (cache misses); ~0 @ serve-point"
	toEval       = "eval_wall_s @ eval-fixpoint; ~0 @ optimize-cold"
	toUpdate     = "update_p50_ms, update_p95_ms @ serve-mixed; ~0 elsewhere"
	toRecovery   = "update_p50_ms, recovery_s @ serve-mixed; ~0 elsewhere"
)

// perLayer are the single-layer metrics, named layer.metric. Times
// come from spans the traced run records around each layer's exported
// functions; counts are exact for a seed where marked.
var perLayer = []metricSpec{
	{Name: "parser.parse_us_per_op", Unit: "us", Better: "lower", Moves: toQueryPoint + "; optimize_wall_s @ optimize-cold; ~0 @ eval-fixpoint"},
	{Name: "parser.bytes_per_s", Unit: "B/s", Better: "higher", Moves: toQueryPoint},

	{Name: "server.cachekey_us_per_op", Unit: "us", Better: "lower", Moves: toQueryPoint},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "query_p50_ms: >= 0.99 @ serve-point, < 0.5 @ serve-mixed by construction"},
	{Name: "server.optimize_ms_per_op", Unit: "ms", Better: "lower", Moves: toQueryPoint + " (the response's optimize_ms)"},
	{Name: "server.eval_ms_per_op", Unit: "ms", Better: "lower", Moves: toQueryPoint + " (the response's eval_ms)"},
	{Name: "server.encode_us_per_op", Unit: "us", Better: "lower", Moves: toQueryPoint + "; view_read_p50_ms @ serve-mixed"},
	{Name: "server.snapshot_us_per_op", Unit: "us", Better: "lower", Moves: "update_p50_ms @ serve-mixed (dataset snapshot rebuilt per update)"},
	{Name: "server.resp_bytes_per_op", Unit: "B", Better: "lower", Exact: true, Moves: toQueryPoint},
	{Name: "server.unattributed_ms_per_op", Unit: "ms", Better: "lower", Moves: toQueryPoint + "; ops_per_s @ serve-point (HTTP, decode, admission, logging, locks)"},
	{Name: "server.query_p99_ms", Unit: "ms", Better: "lower", Moves: "tail of query_p95_ms; does not repeat within a tenth here"},
	{Name: "server.full_p50_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @ serve-mixed"},
	{Name: "server.lint_p50_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @ serve-mixed"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower", Moves: "must stay 0: the generator never exceeds admission"},
	{Name: "server.timeouts", Unit: "count", Better: "lower", Moves: "must stay 0"},

	{Name: "rewrite.normalize_us", Unit: "us", Better: "lower", Moves: toOptimize},
	{Name: "rewrite.local_us", Unit: "us", Better: "lower", Moves: toOptimize},
	{Name: "rewrite.push_us", Unit: "us", Better: "lower", Moves: toOptimize},
	{Name: "rewrite.headeq_us", Unit: "us", Better: "lower", Moves: toOptimize},
	{Name: "adorn.specialize_us", Unit: "us", Better: "lower", Moves: toOptimize},
	{Name: "adorn.bottomup_us", Unit: "us", Better: "lower", Moves: toOptimize},
	{Name: "qtree.build_us", Unit: "us", Better: "lower", Moves: toOptimize},
	{Name: "qtree.prune_us", Unit: "us", Better: "lower", Moves: toOptimize},
	{Name: "qtree.extract_us", Unit: "us", Better: "lower", Moves: toOptimize},
	{Name: "qtree.goal_nodes", Unit: "count", Better: "lower", Exact: true, Moves: toOptimize},
	{Name: "qtree.rule_nodes", Unit: "count", Better: "lower", Exact: true, Moves: toOptimize},
	{Name: "qtree.rules_out", Unit: "count", Better: "lower", Exact: true, Moves: toOptimize},
	{Name: "qtree.derived_ratio", Unit: "ratio", Better: "lower", Exact: true, Moves: "eval_wall_s @ eval-fixpoint (tuples derived, optimized / original)"},

	{Name: "bounded.rewrite_us_per_op", Unit: "us", Better: "lower", Moves: "optimize_wall_s @ optimize-cold; eval_wall_s @ eval-fixpoint (QueryCtx re-analyzes per call)"},
	{Name: "bounded.applied", Unit: "count", Better: "higher", Exact: true, Moves: "optimize_wall_s @ optimize-cold"},
	{Name: "magic.rewrite_us_per_op", Unit: "us", Better: "lower", Moves: "optimize_wall_s @ optimize-cold; " + toQueryPoint + " (per request, uncached)"},
	{Name: "magic.applied", Unit: "count", Better: "higher", Exact: true, Moves: toQueryPoint},
	{Name: "magic.unfold_us", Unit: "us", Better: "lower", Moves: "optimize_wall_s @ optimize-cold (the -stream rewrite; not on sqod's path)"},

	{Name: "eval.wall_ms_per_op", Unit: "ms", Better: "lower", Moves: toEval},
	{Name: "eval.fixed_cost_us", Unit: "us", Better: "lower", Moves: toQueryPoint + " (QueryCtx that derives nothing over the same EDB)"},
	{Name: "eval.tuples_derived", Unit: "count", Better: "lower", Exact: true, Moves: toEval},
	{Name: "eval.join_probes", Unit: "count", Better: "lower", Exact: true, Moves: toEval},
	{Name: "eval.rule_firings", Unit: "count", Better: "lower", Exact: true, Moves: toEval},
	{Name: "eval.rounds", Unit: "count", Better: "lower", Exact: true, Moves: toEval},
	{Name: "eval.plans_compiled", Unit: "count", Better: "lower", Exact: true, Moves: toEval},
	{Name: "eval.plan_ns_share", Unit: "share", Better: "lower", Moves: toEval},
	{Name: "eval.peak_materialized", Unit: "count", Better: "lower", Exact: true, Moves: "peak_rss_mb @ eval-fixpoint"},
	{Name: "eval.ns_per_tuple", Unit: "ns", Better: "lower", Moves: toEval},
	{Name: "eval.ns_per_probe", Unit: "ns", Better: "lower", Moves: toEval},
	{Name: "eval.allocs_per_tuple", Unit: "count", Better: "lower", Moves: toEval + "; peak_rss_mb"},
	{Name: "eval.bytes_per_tuple", Unit: "B", Better: "lower", Moves: toEval + "; peak_rss_mb"},

	{Name: "incr.materialize_ms", Unit: "ms", Better: "lower", Moves: "setup_s, recovery_s @ serve-mixed"},
	{Name: "incr.apply_add_us", Unit: "us", Better: "lower", Moves: toUpdate},
	{Name: "incr.apply_retract_us", Unit: "us", Better: "lower", Moves: toUpdate},
	{Name: "incr.cascade_retract_ms", Unit: "ms", Better: "lower", Moves: "update_p95_ms @ serve-mixed (DRed over-delete / rederive after a chain cut)"},
	{Name: "incr.changed_per_update", Unit: "count", Better: "lower", Exact: true, Moves: toUpdate},
	{Name: "incr.rebuilds", Unit: "count", Better: "lower", Exact: true, Moves: toUpdate},
	{Name: "incr.answers_us", Unit: "us", Better: "lower", Moves: "view_read_p50_ms @ serve-mixed"},

	{Name: "store.append_us_per_op", Unit: "us", Better: "lower", Moves: toRecovery},
	{Name: "store.wal_bytes_per_update", Unit: "B", Better: "lower", Exact: true, Moves: toRecovery},
	{Name: "store.checkpoints", Unit: "count", Better: "lower", Exact: true, Moves: toRecovery},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower", Moves: toRecovery},
	{Name: "store.open_ms", Unit: "ms", Better: "lower", Moves: "recovery_s @ serve-mixed"},
	{Name: "store.replayed_records", Unit: "count", Better: "lower", Exact: true, Moves: "recovery_s @ serve-mixed"},

	{Name: "lint.run_us_per_op", Unit: "us", Better: "lower", Moves: "optimize_wall_s @ optimize-cold; server.lint_p50_ms @ serve-mixed"},
	{Name: "lint.findings", Unit: "count", Better: "lower", Exact: true, Moves: "optimize_wall_s @ optimize-cold"},

	{Name: "host.slowdown", Unit: "ratio", Better: "lower", Moves: "every end-to-end timing is divided by it: the calibration kernel's median time over its nominal time during the timed stretch"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "traced vs untraced time per operation; target < 0.05"},
	{Name: "trace.attributed_share", Unit: "share", Better: "higher", Moves: "sum of layer self time / end-to-end; the rest is server.unattributed"},
}

// tracedMetrics is what a --trace 1 run reports.
func tracedMetrics() []metricSpec {
	return append(append([]metricSpec(nil), scoped...), perLayer...)
}

func specByName(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, scoped, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// percentile returns the p-th percentile (0 < p <= 100) of an
// ascending-sorted sample by the nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rankOf(len(sorted), p), 1), len(sorted))-1]
}

// supported reports whether the sample has at least ten values beyond
// its p-th percentile — the rule for which tail percentile a run may
// report.
func supported(n int, p float64) bool { return n-rankOf(n, p) >= 10 }

// rankOf is the nearest-rank index ceil(p/100 * n), guarded against
// the product landing a hair above a whole number.
func rankOf(n int, p float64) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// highestSupported returns the highest of the usual tail percentiles
// that the sample supports, or 50 when none does.
func highestSupported(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if supported(n, p) {
			return p
		}
	}
	return 50
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the driver uses for the run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
