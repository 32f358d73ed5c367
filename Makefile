# Shared entry points for local development and CI (.github/workflows/ci.yml
# invokes these same targets so the two can't drift).

GO ?= go

.PHONY: build vet vet-stats vet-bench fmt test race bench bench-regression bench-e2e fuzz-smoke incr-smoke lint-smoke serve serve-smoke cluster-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repo's own analyzer (internal/analyzers/statsequal) run as a vet
# pass: every eval.Stats field must be either compared by Stats.Equal
# or deliberately listed in statsEqualExcluded.
vet-stats:
	@mkdir -p bench-out
	$(GO) build -o bench-out/statsequal ./cmd/statsequal
	$(GO) vet -vettool=$(abspath bench-out/statsequal) ./internal/eval/

# bench/ is a module of its own that imports this one through a replace
# directive, so `make build vet test` never compile it: this is what
# catches a product-API change that breaks the benchmark, and — through
# the harness's own tests, its shadow pipeline's parity with the product
# among them — an engine change that the benchmark would misreport.
vet-bench:
	cd bench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# Fails (and lists the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The whole suite under the race detector, then the tests whose point is
# concurrency — N queries sharing one DB's interned base, and readers of
# a snapshot while its successors derive their bases from it — repeated
# so the detector sees more than one interleaving.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run='TestConcurrentQueriesShareBase|TestPreparedRunsConcurrently|TestDerivedBasesUnderConcurrentReaders' ./internal/eval

# One iteration per benchmark: a smoke test that the benchmarks still
# compile and run, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Re-run the JSON-emitting experiments and diff against the committed
# baselines — the same commands the CI bench-regression job runs.
# Regenerate a baseline deliberately with e.g.
#   go run ./cmd/sqobench -run P6 -out BENCH_6.json
bench-regression:
	mkdir -p bench-out
	$(GO) run ./cmd/sqobench -run P4 -out bench-out/bench4.json
	$(GO) run ./cmd/sqobench -run P6 -out bench-out/bench6.json
	$(GO) run ./cmd/sqobench -run P7 -out bench-out/bench7.json
	$(GO) run ./cmd/sqobench -run P8 -out bench-out/bench8.json
	$(GO) run ./cmd/sqobench -run P9 -out bench-out/bench9.json
	$(GO) run ./cmd/sqobench -run P10 -out bench-out/bench10.json
	$(GO) run ./cmd/benchdiff -label P4 -baseline BENCH_4.json -current bench-out/bench4.json
	$(GO) run ./cmd/benchdiff -label P6 -baseline BENCH_6.json -current bench-out/bench6.json
	$(GO) run ./cmd/benchdiff -label P7 -baseline BENCH_7.json -current bench-out/bench7.json
	$(GO) run ./cmd/benchdiff -label P8 -peak-mem -baseline BENCH_8.json -current bench-out/bench8.json
	$(GO) run ./cmd/benchdiff -label P9 -baseline BENCH_9.json -current bench-out/bench9.json
	$(GO) run ./cmd/benchdiff -label P10 -baseline BENCH_10.json -current bench-out/bench10.json

# The end-to-end benchmark (BENCHMARK.json, bench/): every workload —
# point queries, the mixed run (the one with writes, a live view and a
# SIGKILL recovery), a cold-compile run and an in-process fixpoint run
# (the workload where the engine is at least 90% of wall) — as the
# benchmark driver launches them — last output line is the result, every
# answer (every compiled program, byte for byte, on optimize-cold) is
# checked against an oracle — plus the harness's own unit tests (bench/
# is a module of its own, so `make test` skips them; `make vet-bench`
# runs them too, blocking). The CI bench-e2e job runs this non-blocking.
bench-e2e:
	bash bench/run.sh --workload serve-point --seed 1 --seconds 25 --trace 0
	bash bench/run.sh --workload serve-mixed --seed 1 --seconds 25 --trace 0
	bash bench/run.sh --workload optimize-cold --seed 1 --seconds 25 --trace 0
	bash bench/run.sh --workload eval-fixpoint --seed 1 --seconds 25 --trace 0
	cd bench && $(GO) test ./...

# A short native-fuzzing pass over the parser, over the order solver
# (against its from-scratch reference), over the linter (no panics,
# deterministic findings), over the response writer
# (against the render-sort-encode path it replaced), over goal-directed
# evaluation (magic, streaming and the one-root renaming fold against
# bottom-up) and over the engine (against the reference evaluator, and a
# derived interned base against a from-scratch one). Long enough to exercise the mutator, short enough for CI;
# sustained campaigns should raise -fuzztime by hand.
fuzz-smoke:
	$(GO) test ./internal/parser -run='^$$' -fuzz=FuzzParse -fuzztime=10s
	$(GO) test ./internal/order -run='^$$' -fuzz=FuzzOrder -fuzztime=10s
	$(GO) test ./internal/lint -run='^$$' -fuzz=FuzzLint -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzAnswerWriter -fuzztime=10s
	$(GO) test ./internal/eval -run='^$$' -fuzz=FuzzMagic -fuzztime=10s
	$(GO) test ./internal/eval -run='^$$' -fuzz=FuzzPlan -fuzztime=10s

# Randomized differential check of incremental view maintenance under
# the race detector: after every prefix of a random add/retract
# sequence, View answers/counts/provenance must be bit-identical to a
# from-scratch evaluation; the long-sequence run does the same over
# 2,000 batches per program, far enough to cross tombstone
# compaction many times. The CI race job runs this too.
incr-smoke:
	$(GO) test ./internal/incr -race -count=1 -run='TestIncrRandomizedDifferential|TestIncrLongSequenceDifferential'

# Run sqolint over the checked-in example programs: the clean examples
# must exit 0, deadcode.dl must exit 1 (it contains an unsatisfiable
# rule), and its JSON report must name the dead rules. The CI test job
# runs this too.
lint-smoke:
	$(GO) run ./cmd/sqolint examples/lint/figure1.dl
	$(GO) run ./cmd/sqolint examples/lint/hygiene.dl
	$(GO) run ./cmd/sqolint examples/lint/bounded.dl
	$(GO) run ./cmd/sqolint examples/lint/unbounded.dl
	@$(GO) run ./cmd/sqolint -json examples/lint/bounded.dl | grep -q '"id": "bounded-recursion"' \
		|| { echo "lint-smoke: bounded-recursion finding missing from JSON report"; exit 1; }
	@if $(GO) run ./cmd/sqolint examples/lint/deadcode.dl; then \
		echo "lint-smoke: deadcode.dl should exit non-zero"; exit 1; \
	else \
		echo "lint-smoke: deadcode.dl correctly rejected"; \
	fi
	@$(GO) run ./cmd/sqolint -json examples/lint/deadcode.dl | grep -q '"id": "dead-rule"' \
		|| { echo "lint-smoke: dead-rule finding missing from JSON report"; exit 1; }
	@echo "lint-smoke: PASS"

# Run the query daemon locally with default settings.
serve:
	$(GO) run ./cmd/sqod

# Boot sqod, register a dataset, run an optimized query twice (second
# must hit the rewrite cache), scrape /metrics, then SIGTERM and assert
# a clean drain. The same script backs the CI smoke job.
serve-smoke:
	./scripts/serve-smoke.sh

# Boot a coordinator fronting two worker sqods, place datasets, run a
# scattered query, SIGKILL one worker mid-run, and assert the explicit
# degraded/failed_peers contract. The same script backs the CI job.
cluster-smoke:
	./scripts/cluster-smoke.sh

ci: build vet vet-stats vet-bench fmt test
