# Shared entry points for local development and CI (.github/workflows/ci.yml
# invokes these same targets so the two can't drift).

GO ?= go

.PHONY: build cross vet vet-bench fmt test race bench bench-e2e fuzz-smoke incr-smoke lint-smoke serve serve-smoke ci

build:
	$(GO) build ./...

# The product builds on Windows and macOS too: it has no build-tagged
# file, so the one path Linux runs is the path every platform builds.
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

vet:
	$(GO) vet ./...

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

# The suite includes TestExperiments, which holds every counter
# EXPERIMENTS.md reports to testdata/experiments.golden.
test:
	$(GO) test ./...

# The whole suite under the race detector, then the tests whose point is
# concurrency — N queries sharing one DB's interned base, readers of a
# snapshot while its successors derive their bases from it, readers
# probing a snapshot's relations through their dedup sets and indexes
# while its successors carry them, and readers
# scanning a shared relation's indexes while another reader appends the
# one it first needed, and runs of one prepared query filling and hitting
# a base's answer memo while another DB's base takes its plans — repeated
# so the detector sees more than one interleaving.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run='TestConcurrentQueriesShareBase|TestPreparedRunsConcurrently|TestDerivedBasesUnderConcurrentReaders|TestCarriedRelationsUnderConcurrentProbes|TestConcurrentLookupSameMask|TestFanoutReadsShareBase|TestAnswerMemoConcurrent' ./internal/eval

# One iteration per benchmark: a smoke test that the benchmarks still
# compile and run, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

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

# A short native-fuzzing pass over every fuzz target, the eleven the
# nightly job runs for 5 minutes each: the parser, the order solver
# (against its from-scratch reference), the linter (no panics,
# deterministic findings), the optimizer (deterministic program and
# forest, every adornment registered with a rule that reads only earlier
# ones, extraction's pairs exactly the forest's), the response writer
# (against the render-sort-encode path it replaced), goal-directed
# evaluation (magic, streaming and the one-root renaming fold against
# bottom-up), the engine
# (against the reference evaluator, and a derived interned base against a
# from-scratch one), bounded-recursion elimination (against bottom-up
# and the reference evaluator), view maintenance (a live view against
# from-scratch evaluation after every add/retract batch), and the store's
# WAL replay and checkpoint reader (FuzzSegment: malformed input is
# ErrCorrupt, never a panic, and a checkpoint that loads re-encodes to
# itself). Long enough to exercise the mutator, short enough for CI;
# sustained campaigns should raise -fuzztime by hand.
fuzz-smoke:
	$(GO) test ./internal/parser -run='^$$' -fuzz=FuzzParse -fuzztime=10s
	$(GO) test ./internal/order -run='^$$' -fuzz=FuzzOrder -fuzztime=10s
	$(GO) test ./internal/lint -run='^$$' -fuzz=FuzzLint -fuzztime=10s
	$(GO) test ./internal/qtree -run='^$$' -fuzz=FuzzOptimize -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzAnswerWriter -fuzztime=10s
	$(GO) test ./internal/eval -run='^$$' -fuzz=FuzzMagic -fuzztime=10s
	$(GO) test ./internal/eval -run='^$$' -fuzz=FuzzPlan -fuzztime=10s
	$(GO) test ./internal/eval -run='^$$' -fuzz=FuzzElim -fuzztime=10s
	$(GO) test ./internal/incr -run='^$$' -fuzz=FuzzView -fuzztime=10s
	$(GO) test ./internal/store -run='^$$' -fuzz=FuzzWAL -fuzztime=10s
	$(GO) test ./internal/store -run='^$$' -fuzz=FuzzSegment -fuzztime=10s

# Randomized differential check of incremental view maintenance under
# the race detector: after every prefix of a random add/retract
# sequence, a View's answers, every derived predicate's facts and its
# provenance must be identical to a from-scratch evaluation; the long-sequence run does the same over
# 2,000 batches per program, far enough to cross tombstone
# compaction many times. The CI race job runs this too.
incr-smoke:
	$(GO) test ./internal/incr -race -count=1 -run='TestIncrRandomizedDifferential|TestIncrLongSequenceDifferential'

# Lint the checked-in example programs with sqoc -lint, which prints its
# findings to stderr (the optimized program on stdout is dropped): the
# five clean examples must exit 0, unbounded.dl's report must carry L7's
# boundedness-budget note, and deadcode.dl must exit non-zero (it
# contains an unsatisfiable rule) with a report naming the dead rules;
# and with -facts, a finding on a fact of the facts file must print under
# that file's name, one on the input under the input's, and an arity
# mismatch inside the facts file must cite its first sighting at that
# sighting's own line there. The CI test job runs this too.
lint-smoke:
	$(GO) run ./cmd/sqoc -lint examples/lint/figure1.dl >/dev/null
	$(GO) run ./cmd/sqoc -lint examples/lint/hygiene.dl >/dev/null
	$(GO) run ./cmd/sqoc -lint examples/lint/bounded.dl >/dev/null
	$(GO) run ./cmd/sqoc -lint examples/lint/pointquery.dl >/dev/null
	@out="$$($(GO) run ./cmd/sqoc -lint examples/lint/unbounded.dl 2>&1 >/dev/null)" \
		|| { echo "$$out"; echo "lint-smoke: unbounded.dl should exit 0"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -qF '[L7/boundedness-budget]' \
		|| { echo "lint-smoke: boundedness-budget finding missing from unbounded.dl's report"; exit 1; }
	@if out="$$($(GO) run ./cmd/sqoc -lint examples/lint/deadcode.dl 2>&1 >/dev/null)"; then \
		echo "lint-smoke: deadcode.dl should exit non-zero"; exit 1; \
	fi; \
	echo "$$out"; \
	echo "$$out" | grep -qF '[L2/dead-rule]' \
		|| { echo "lint-smoke: dead-rule finding missing from deadcode.dl's report"; exit 1; }; \
	echo "lint-smoke: deadcode.dl correctly rejected"
	@out="$$($(GO) run ./cmd/sqoc -lint -facts examples/lint/stray.facts examples/lint/figure1.dl 2>&1 >/dev/null)" \
		|| { echo "$$out"; echo "lint-smoke: figure1.dl with stray.facts should exit 0"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -qF 'examples/lint/stray.facts:1:1: info: [L5/unused-edb]' \
		|| { echo "lint-smoke: the facts file's finding is not under its name"; exit 1; }; \
	echo "$$out" | grep -qF 'examples/lint/figure1.dl:8:1: info: [L7/boundedness-budget]' \
		|| { echo "lint-smoke: the input's finding is not under its name"; exit 1; }
	@d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	printf 'q(X) :- e(X).\n?- q.\n' > "$$d/in.dl"; printf 'e(1).\nz(1).\nz(1, 2).\n' > "$$d/x.facts"; \
	if out="$$($(GO) run ./cmd/sqoc -lint -facts "$$d/x.facts" "$$d/in.dl" 2>&1 >/dev/null)"; then \
		echo "lint-smoke: a facts file with an arity mismatch should exit non-zero"; exit 1; \
	fi; \
	echo "$$out"; \
	echo "$$out" | grep -qF "$$d/x.facts:3:1: error: [L5/arity-mismatch] predicate z used with arity 2 here but arity 1 at 2:1" \
		|| { echo "lint-smoke: the arity mismatch does not cite its first sighting at its line in the facts file"; exit 1; }
	@echo "lint-smoke: PASS"

# Run the query daemon locally with default settings.
serve:
	$(GO) run ./cmd/sqod

# Boot sqod, register a dataset, run an optimized query twice (second
# must hit the rewrite cache), scrape /metrics, then SIGTERM and assert
# a clean drain. The same script backs the CI smoke job.
serve-smoke:
	./scripts/serve-smoke.sh

ci: build vet vet-bench fmt test
