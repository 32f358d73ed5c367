#!/usr/bin/env bash
# serve-smoke.sh — end-to-end smoke test of the sqod daemon.
#
# Boots sqod on a private port, registers a dataset, runs the same
# optimized query twice (the second must hit the rewrite cache), runs a
# point query at a second constant (it must hit the query prepared for
# the first one's binding pattern and answer for its own constant),
# scrapes /metrics for the cache counters, then sends SIGTERM and
# asserts the daemon drains and exits 0. The first pass runs without
# -data-dir (pure in-memory, exactly as before durability existed);
# a second pass starts a durable daemon, populates it, stops it, and
# restarts on the same directory asserting datasets, facts, and live
# views all survive and a full-relation query's body is byte-identical
# (SHA-256) across the restart; then it inserts a fact, kills the daemon
# with SIGKILL, and asserts the fact and the view's answers survive a
# restart that replays the checkpoint plus the WAL tail, and that the
# log holds one request line for each request the last process answered
# once it has drained. `make
# serve-smoke` and the CI serve-smoke job both run exactly this script.
set -euo pipefail

ADDR="${SQOD_ADDR:-127.0.0.1:18351}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
trap 'kill "$SQOD_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

fail() { echo "serve-smoke: FAIL: $*" >&2; sed 's/^/  sqod: /' "$WORK/sqod.log" >&2 || true; exit 1; }

echo "serve-smoke: building sqod"
go build -o "$WORK/sqod" ./cmd/sqod

echo "serve-smoke: sqod has no cluster mode (-coordinator is not a flag)"
STATUS=0
"$WORK/sqod" -coordinator >"$WORK/sqod.log" 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "sqod -coordinator exited $STATUS (want 2)"
grep -q 'flag provided but not defined: -coordinator' "$WORK/sqod.log" || fail "sqod -coordinator did not reject the flag"

echo "serve-smoke: starting sqod on $ADDR"
"$WORK/sqod" -addr "$ADDR" -drain 10s >"$WORK/sqod.log" 2>&1 &
SQOD_PID=$!

for i in $(seq 1 100); do
	if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
	kill -0 "$SQOD_PID" 2>/dev/null || fail "sqod exited during startup"
	[ "$i" -eq 100 ] && fail "sqod did not become healthy within 10s"
	sleep 0.1
done

echo "serve-smoke: registering dataset"
curl -fsS -X PUT "$BASE/v1/datasets/quickstart" --data-binary '
	step(1, 2). step(2, 3). step(3, 4). step(2, 5).
	startPoint(1). startPoint(2). endPoint(4). endPoint(5).
' >"$WORK/register.json" || fail "dataset registration failed"
jq -e '.facts == 8' "$WORK/register.json" >/dev/null || fail "expected 8 facts, got: $(cat "$WORK/register.json")"

QUERY='{
  "program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y). ?- goodPath.",
  "ics": ":- startPoint(X), endPoint(Y), Y <= X.",
  "dataset": "quickstart"
}'

echo "serve-smoke: first optimized query (cache miss)"
curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' -d "$QUERY" >"$WORK/q1.json" || fail "first query failed"
jq -e '.cache_hit == false and .optimized == true and .answer_count == 4' "$WORK/q1.json" >/dev/null \
	|| fail "unexpected first response: $(cat "$WORK/q1.json")"

echo "serve-smoke: second identical query (cache hit)"
curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' -d "$QUERY" >"$WORK/q2.json" || fail "second query failed"
jq -e '.cache_hit == true' "$WORK/q2.json" >/dev/null || fail "second query missed the cache: $(cat "$WORK/q2.json")"
[ "$(jq -cS .answers "$WORK/q1.json")" = "$(jq -cS .answers "$WORK/q2.json")" ] || fail "cached answers differ from fresh answers"
# The first query interned the dataset snapshot; the second reused that base.
curl -fsS "$BASE/metrics" >"$WORK/base-metrics.txt" || fail "metrics scrape failed"
grep -q '^sqod_edb_base_builds_total 1$' "$WORK/base-metrics.txt" || fail "expected one interned-base build after two queries on one snapshot"
grep -q '^sqod_edb_base_reuses_total 1$' "$WORK/base-metrics.txt" || fail "second identical query did not reuse the snapshot's interned base"

echo "serve-smoke: materialized view over a mutable dataset"
curl -fsS -X POST "$BASE/v1/datasets/quickstart/views/paths" -H 'Content-Type: application/json' \
	-d '{"program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path.", "optimize": false}' >"$WORK/v1.json" \
	|| fail "view create failed"
jq -e '.answer_count == 8' "$WORK/v1.json" >/dev/null || fail "unexpected view: $(cat "$WORK/v1.json")"

echo "serve-smoke: inserting a fact maintains the view incrementally"
curl -fsS -X POST "$BASE/v1/datasets/quickstart/facts" --data-binary 'step(5, 6).' >"$WORK/u1.json" || fail "fact insert failed"
jq -e '.facts_added == 1 and .views[0].answers_added == 3' "$WORK/u1.json" >/dev/null || fail "unexpected update: $(cat "$WORK/u1.json")"
curl -fsS "$BASE/v1/datasets/quickstart/views/paths" >"$WORK/v2.json" || fail "view get failed"
jq -e '.answer_count == 11 and .stats.applies == 1 and .stats.full_rebuilds == 0' "$WORK/v2.json" >/dev/null \
	|| fail "view not maintained incrementally: $(cat "$WORK/v2.json")"

echo "serve-smoke: retracting the fact restores the view"
curl -fsS -X DELETE "$BASE/v1/datasets/quickstart/facts" --data-binary 'step(5, 6).' >/dev/null || fail "fact retract failed"
curl -fsS "$BASE/v1/datasets/quickstart/views/paths" >"$WORK/v3.json" || fail "view get failed"
jq -e '.answer_count == 8' "$WORK/v3.json" >/dev/null || fail "view not restored: $(cat "$WORK/v3.json")"
[ "$(jq -cS .answers "$WORK/v1.json")" = "$(jq -cS .answers "$WORK/v3.json")" ] || fail "view answers differ after add+retract round trip"

echo "serve-smoke: goal-directed point query (magic-sets rewrite)"
POINT='{
  "program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path(1, Y).",
  "dataset": "quickstart"
}'
curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' -d "$POINT" >"$WORK/m1.json" || fail "magic point query failed"
jq -e '.magic == true and .answer_count == 4' "$WORK/m1.json" >/dev/null \
	|| fail "point query did not evaluate via magic: $(cat "$WORK/m1.json")"

echo "serve-smoke: point query with a second constant (prepared once per binding pattern)"
POINT2='{
  "program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path(2, Y).",
  "dataset": "quickstart"
}'
curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' -d "$POINT2" >"$WORK/m3.json" || fail "second-constant point query failed"
jq -e '.cache_hit == true and .magic == true and .answers == ["(2, 3)", "(2, 4)", "(2, 5)"]' "$WORK/m3.json" >/dev/null \
	|| fail "a new constant missed the prepared query or got another goal's answers: $(cat "$WORK/m3.json")"

echo "serve-smoke: a retired \"magic\" field is ignored — same rewrite, same answers"
POINT_OFF='{
  "program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path(1, Y).",
  "dataset": "quickstart",
  "magic": "off"
}'
curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' -d "$POINT_OFF" >"$WORK/m2.json" || fail "query with \"magic\" failed"
jq -e '.magic == true and .cache_hit == true' "$WORK/m2.json" >/dev/null || fail "\"magic\": \"off\" was not ignored: $(cat "$WORK/m2.json")"
[ "$(jq -cS '.answers' "$WORK/m1.json")" = "$(jq -cS '.answers' "$WORK/m2.json")" ] \
	|| fail "\"magic\": \"off\" changed the point-query answers"

echo "serve-smoke: bounded recursive query (recursion elimination)"
curl -fsS -X POST "$BASE/v1/datasets/quickstart/facts" --data-binary '
	likes(1, 10). likes(2, 20). trendy(1). trendy(2).
' >"$WORK/e0.json" || fail "likes/trendy insert failed"
jq -e '.facts_added == 4' "$WORK/e0.json" >/dev/null || fail "unexpected insert: $(cat "$WORK/e0.json")"
BOUNDED='{
  "program": "buys(X, Y) :- likes(X, Y). buys(X, Y) :- trendy(X), buys(Z, Y). ?- buys.",
  "dataset": "quickstart"
}'
curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' -d "$BOUNDED" >"$WORK/e1.json" || fail "bounded query failed"
jq -e '.elim == true and .answer_count == 4' "$WORK/e1.json" >/dev/null \
	|| fail "bounded query did not evaluate via elim: $(cat "$WORK/e1.json")"

echo "serve-smoke: a retired \"elim\" field is ignored — same rewrite, same answers"
BOUNDED_OFF='{
  "program": "buys(X, Y) :- likes(X, Y). buys(X, Y) :- trendy(X), buys(Z, Y). ?- buys.",
  "dataset": "quickstart",
  "elim": "off"
}'
curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' -d "$BOUNDED_OFF" >"$WORK/e2.json" || fail "query with \"elim\" failed"
jq -e '.elim == true and .cache_hit == true' "$WORK/e2.json" >/dev/null || fail "\"elim\": \"off\" was not ignored: $(cat "$WORK/e2.json")"
[ "$(jq -cS '.answers' "$WORK/e1.json")" = "$(jq -cS '.answers' "$WORK/e2.json")" ] \
	|| fail "\"elim\": \"off\" changed the bounded-query answers"

echo "serve-smoke: linting a program with a known-dead rule"
LINT='{
  "program": "p(X) :- a(X, Y), b(Y, X). q(X) :- p(X). r(X) :- c(X, X). r(X) :- p(X), c(X, X). ?- r.",
  "ics": ":- a(X, Y), b(Y, Z)."
}'
curl -fsS -X POST "$BASE/v1/lint" -H 'Content-Type: application/json' -d "$LINT" >"$WORK/lint.json" || fail "lint request failed"
jq -e '.errors == 1' "$WORK/lint.json" >/dev/null || fail "expected 1 lint error: $(cat "$WORK/lint.json")"
jq -e '[.findings[] | select(.id == "unsat-body")] | length == 1' "$WORK/lint.json" >/dev/null \
	|| fail "unsat-body finding missing: $(cat "$WORK/lint.json")"
jq -e '[.findings[] | select(.id == "dead-rule")] | length == 2' "$WORK/lint.json" >/dev/null \
	|| fail "dead-rule findings missing: $(cat "$WORK/lint.json")"

echo "serve-smoke: scraping /metrics"
curl -fsS "$BASE/metrics" >"$WORK/metrics.txt" || fail "metrics scrape failed"
grep -Eq '^sqod_cache_hits_total [1-9]' "$WORK/metrics.txt" || fail "sqod_cache_hits_total not positive"
grep -Eq '^sqod_cache_misses_total [1-9]' "$WORK/metrics.txt" || fail "sqod_cache_misses_total not positive"
grep -q '^sqod_requests_total' "$WORK/metrics.txt" || fail "sqod_requests_total missing"
grep -Eq '^sqod_lint_runs_total [1-9]' "$WORK/metrics.txt" || fail "sqod_lint_runs_total not positive"
grep -Eq '^sqod_lint_findings_total [1-9]' "$WORK/metrics.txt" || fail "sqod_lint_findings_total not positive"
grep -Eq '^sqod_eval_magic_total [1-9]' "$WORK/metrics.txt" || fail "sqod_eval_magic_total not positive"
grep -Eq '^sqod_eval_elim_total [1-9]' "$WORK/metrics.txt" || fail "sqod_eval_elim_total not positive"

echo "serve-smoke: SIGTERM — expecting a clean drain"
kill -TERM "$SQOD_PID"
STATUS=0
wait "$SQOD_PID" || STATUS=$?
[ "$STATUS" -eq 0 ] || fail "sqod exited $STATUS after SIGTERM (want 0)"
grep -q "clean shutdown" "$WORK/sqod.log" || fail "no clean-shutdown line in the log"

# --- durability: stop/restart cycle on a -data-dir --------------------

DATA="$WORK/data"

echo "serve-smoke: starting durable sqod (-data-dir)"
"$WORK/sqod" -addr "$ADDR" -data-dir "$DATA" -drain 10s >"$WORK/sqod.log" 2>&1 &
SQOD_PID=$!
for i in $(seq 1 100); do
	if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
	kill -0 "$SQOD_PID" 2>/dev/null || fail "durable sqod exited during startup"
	[ "$i" -eq 100 ] && fail "durable sqod did not become healthy within 10s"
	sleep 0.1
done

echo "serve-smoke: populating the durable daemon"
curl -fsS -X PUT "$BASE/v1/datasets/quickstart" --data-binary '
	step(1, 2). step(2, 3). step(3, 4). step(2, 5).
	startPoint(1). startPoint(2). endPoint(4). endPoint(5).
' >/dev/null || fail "durable dataset registration failed"
curl -fsS -X POST "$BASE/v1/datasets/quickstart/views/paths" -H 'Content-Type: application/json' \
	-d '{"program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path.", "optimize": false}' >/dev/null \
	|| fail "durable view create failed"
curl -fsS -X POST "$BASE/v1/datasets/quickstart/facts" --data-binary 'step(5, 6).' >/dev/null || fail "durable fact insert failed"
curl -fsS "$BASE/v1/datasets/quickstart/views/paths" >"$WORK/dv1.json" || fail "durable view get failed"
jq -e '.answer_count == 11' "$WORK/dv1.json" >/dev/null || fail "unexpected durable view: $(cat "$WORK/dv1.json")"
# A full-relation query: its body, less the three members that report
# this request's timing and cache luck, must hash the same after the
# restart below, and answer_count must be the length of answers.
FULL='{
  "program": "path(X, Y) :- step(X, Y). path(X, Y) :- step(X, Z), path(Z, Y). ?- path.",
  "dataset": "quickstart"
}'
body_sha() { grep -Ev '^  "(optimize_ms|eval_ms|cache_hit)":' "$1" | sha256sum | cut -d' ' -f1; }
curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' -d "$FULL" >"$WORK/full1.json" || fail "full query failed"
jq -e '.answer_count == 11 and .answer_count == (.answers | length) and .answers == (.answers | sort)' "$WORK/full1.json" >/dev/null \
	|| fail "full query: answer_count, answers and their order disagree: $(cat "$WORK/full1.json")"
curl -fsS "$BASE/metrics" >"$WORK/dmetrics.txt" || fail "durable metrics scrape failed"
grep -Eq '^sqod_wal_appends_total [1-9]' "$WORK/dmetrics.txt" || fail "sqod_wal_appends_total not positive"
grep -Eq '^sqod_wal_bytes_total [1-9]' "$WORK/dmetrics.txt" || fail "sqod_wal_bytes_total not positive"

echo "serve-smoke: stopping the durable daemon (final checkpoint)"
kill -TERM "$SQOD_PID"
STATUS=0
wait "$SQOD_PID" || STATUS=$?
[ "$STATUS" -eq 0 ] || fail "durable sqod exited $STATUS after SIGTERM (want 0)"
grep -q "final checkpoint written" "$WORK/sqod.log" || fail "no final-checkpoint line in the log"

# sqod replays the recovered state before it listens, so the first 200
# from /readyz (what a load balancer or orchestrator probes) comes with
# every dataset and view in place.
start_durable() {
	"$WORK/sqod" -addr "$ADDR" -data-dir "$DATA" -drain 10s >"$WORK/sqod.log" 2>&1 &
	SQOD_PID=$!
	for i in $(seq 1 100); do
		if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then break; fi
		kill -0 "$SQOD_PID" 2>/dev/null || fail "restarted sqod exited during recovery"
		[ "$i" -eq 100 ] && fail "restarted sqod never became ready within 10s"
		sleep 0.1
	done
}

echo "serve-smoke: restarting on the same -data-dir"
start_durable

echo "serve-smoke: asserting datasets, facts, and views survived the restart"
curl -fsS "$BASE/v1/datasets" >"$WORK/dlist.json" || fail "dataset list failed after restart"
jq -e 'length == 1 and .[0].name == "quickstart" and .[0].facts == 9 and .[0].views == ["paths"]' "$WORK/dlist.json" >/dev/null \
	|| fail "recovered inventory wrong: $(cat "$WORK/dlist.json")"
curl -fsS "$BASE/v1/datasets/quickstart/views/paths" >"$WORK/dv2.json" || fail "view get failed after restart"
jq -e '.answer_count == 11' "$WORK/dv2.json" >/dev/null || fail "recovered view wrong: $(cat "$WORK/dv2.json")"
[ "$(jq -cS .answers "$WORK/dv1.json")" = "$(jq -cS .answers "$WORK/dv2.json")" ] || fail "view answers differ across restart"
grep -Eq '^sqod_recovery_seconds [0-9]' <(curl -fsS "$BASE/metrics") || fail "sqod_recovery_seconds missing after restart"
curl -fsS -X POST "$BASE/v1/query" -H 'Content-Type: application/json' -d "$FULL" >"$WORK/full2.json" || fail "full query failed after restart"
jq -e '.answer_count == (.answers | length)' "$WORK/full2.json" >/dev/null || fail "full query after restart: answer_count is not the length of answers"
[ "$(body_sha "$WORK/full1.json")" = "$(body_sha "$WORK/full2.json")" ] \
	|| fail "full-query body changed across the restart: $(diff "$WORK/full1.json" "$WORK/full2.json")"

echo "serve-smoke: view still maintainable after recovery"
curl -fsS -X POST "$BASE/v1/datasets/quickstart/facts" --data-binary 'step(6, 7).' >"$WORK/du1.json" || fail "post-recovery insert failed"
jq -e '.views[0].answers_added >= 1' "$WORK/du1.json" >/dev/null || fail "recovered view not maintained: $(cat "$WORK/du1.json")"
curl -fsS "$BASE/v1/datasets/quickstart/views/paths" >"$WORK/dv3.json" || fail "view get failed after the insert"

echo "serve-smoke: SIGKILL, then a restart that replays the checkpoint and a WAL tail"
kill -KILL "$SQOD_PID"
{ wait "$SQOD_PID"; } 2>/dev/null || true # bash reports the kill
start_durable
grep -Eq 'store opened.* wal_records=[1-9]' "$WORK/sqod.log" || fail "the restart after SIGKILL replayed no WAL tail"
curl -fsS "$BASE/v1/datasets" >"$WORK/dlist2.json" || fail "dataset list failed after SIGKILL"
jq -e 'length == 1 and .[0].name == "quickstart" and .[0].facts == 10 and .[0].views == ["paths"]' "$WORK/dlist2.json" >/dev/null \
	|| fail "inventory after SIGKILL wrong: $(cat "$WORK/dlist2.json")"
curl -fsS "$BASE/v1/datasets/quickstart/views/paths" >"$WORK/dv4.json" || fail "view get failed after SIGKILL"
[ "$(jq -cS .answers "$WORK/dv3.json")" = "$(jq -cS .answers "$WORK/dv4.json")" ] || fail "view answers differ across SIGKILL"

echo "serve-smoke: final SIGTERM — expecting a clean drain"
kill -TERM "$SQOD_PID"
STATUS=0
wait "$SQOD_PID" || STATUS=$?
[ "$STATUS" -eq 0 ] || fail "restarted sqod exited $STATUS after SIGTERM (want 0)"
grep -q "clean shutdown" "$WORK/sqod.log" || fail "no clean-shutdown line in the restart log"
# sqod buffers its per-request log lines; the drain writes them out. This
# process answered three requests: the /readyz that found it ready, the
# dataset list and the view read.
REQUEST_LINES="$(grep -c 'msg=request' "$WORK/sqod.log" || true)"
[ "$REQUEST_LINES" -eq 3 ] || fail "the log holds $REQUEST_LINES request lines after the drain (want 3, one per request)"

echo "serve-smoke: PASS"
