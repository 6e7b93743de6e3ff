# Development targets. CI (.github/workflows/ci.yml) runs the same steps.

FUZZTIME ?= 30s
FUZZ_TARGETS := FuzzDifferential FuzzMetamorphic FuzzHashTree FuzzEncodeRoundTrip FuzzSortKernel
# Root-package fuzz targets (seed corpus under testdata/fuzz/).
FUZZ_TARGETS_ROOT := FuzzIncrementalMaintenance
# WAL fuzz targets (seed corpus under internal/wal/testdata/fuzz/).
FUZZ_TARGETS_WAL := FuzzWALReplay
# Segment fuzz targets (seed corpus under internal/segment/testdata/fuzz/).
FUZZ_TARGETS_SEGMENT := FuzzSegmentReader

.PHONY: build vet test short race chaos fuzz corpus bench-smoke bench-e2e bench-gate loc leftovers

# The chaos suite: fault injection, failure detection and recovery tests
# across the transport, scheduler, distributed-cube and POL layers. Every
# fault schedule is seeded and deterministic; -race is on because these
# paths are the most concurrent in the repo.
CHAOS_PKGS := ./internal/mpi ./internal/cluster ./internal/core ./internal/online ./internal/oracle
CHAOS_RUN  := 'Chaos|Fault|Recovery|Dead|Timeout|Kill|Degrad|Collective'

build:
	go build ./...

vet:
	go vet ./...

test: vet build
	go test ./...

# Skips the experiment-harness figure replays (several minutes).
short:
	go test -short ./...

# The one -race run of every package, so of every correctness suite: the
# serving (internal/serve, the root differential oracle), maintenance
# (internal/ingest, the root maintenance and metamorphic oracles), WAL
# (internal/wal, the crash-recovery oracle, the durable round trip),
# adaptive (the policy suite, the adaptive-vs-LRU twins), segment
# (internal/segment, the spill kernel, the cold-tier oracle) and edge
# (internal/httpserve, cmd/icecube, cmd/benchguard, the metrics-under-load
# tests) suites. Only the heavy paper-figure sweeps in internal/exp skip
# themselves under -race; the algorithms' race coverage comes from
# core/cluster/mpi/oracle.
race:
	go test -race -timeout 15m ./...

chaos:
	go test -race -timeout 10m -count=1 -run $(CHAOS_RUN) $(CHAOS_PKGS)

# Run each fuzz target for $(FUZZTIME) (CI's fuzz-smoke job runs this).
# Checked-in corpus entries under internal/oracle/testdata/fuzz/,
# testdata/fuzz/, internal/wal/testdata/fuzz/ and
# internal/segment/testdata/fuzz/ also replay as regression tests in
# `make test`.
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "== $$t =="; \
		go test ./internal/oracle -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for t in $(FUZZ_TARGETS_ROOT); do \
		echo "== $$t =="; \
		go test . -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for t in $(FUZZ_TARGETS_WAL); do \
		echo "== $$t =="; \
		go test ./internal/wal -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for t in $(FUZZ_TARGETS_SEGMENT); do \
		echo "== $$t =="; \
		go test ./internal/segment -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Regenerate the checked-in seed corpora: the oracle corpus from
# internal/oracle/seeds.go, the WAL replay corpus from fuzzSeedLogs, the
# segment reader corpus from fuzzSeedScripts.
corpus:
	go run ./internal/oracle/gencorpus
	WAL_GENCORPUS=1 go test ./internal/wal -run TestGenWALCorpus -count=1
	SEGMENT_GENCORPUS=1 go test ./internal/segment -run TestGenSegmentCorpus -count=1

# One pass over the paper-figure benchmarks, snapshotted to BENCH_<date>.json
# and gated against bench/baseline.json. Only allocs/op regressions fail —
# the sort/partition kernels are zero-allocation in steady state, so the
# count is deterministic; ns/op on shared runners is too noisy to gate.
# -strict makes a benchmark that is absent from the baseline a failure, so
# every new benchmark must be frozen into bench/baseline.json in its own PR.
bench-smoke:
	go test -run xxx -bench 'BenchmarkFig|BenchmarkSec5_1|BenchmarkServe|BenchmarkCommit|BenchmarkWAL|BenchmarkRecover|BenchmarkSegment|BenchmarkSpill' -benchmem -benchtime 1x -timeout 30m . | \
		go run ./cmd/benchguard -strict -out BENCH_$$(date +%F).json -baseline bench/baseline.json

# One run of the repo's end-to-end benchmark (BENCHMARK.json): builds into
# the git-ignored .bench_build/ and prints every gated metric. Pick the
# workload and the op-sequence seed; BENCH_ARGS passes anything else
# through (e.g. BENCH_ARGS='-json run.jsonl' to collect runs for
# `go run ./benchmark -compare parent.jsonl change.jsonl`).
WORKLOAD ?= serve_hot
SEED ?= 1
bench-e2e:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 10 $(BENCH_ARGS)

# The one latency gate: every BENCHMARK.json workload, this tree against
# BASE (any git ref), compared by `benchmark -compare` against the
# bounds BENCHMARK.json fixes; exits non-zero when any end-to-end metric
# of this tree is outside its bound. BASE is checked out as a worktree
# under the git-ignored .bench_build/ and removed on exit. Each of PAIRS
# rounds runs both sides back to back on the same seed, alternating which
# goes first, because the machine drifts by more than the bounds over
# minutes; GOMAXPROCS and GOGC are pinned for both sides and echoed (the
# benchmark also records them in every -json line).
PAIRS ?= 3
BENCH_WORKLOADS := cube_batch serve_hot serve_thrash serve_write recover cold_scan
bench-gate: export GOMAXPROCS ?= $(shell getconf _NPROCESSORS_ONLN)
bench-gate: export GOGC ?= 100
bench-gate:
	@test -n "$(BASE)" || { echo 'usage: make bench-gate BASE=<git ref> [PAIRS=3]' >&2; exit 2; }
	@set -eu; out=$(CURDIR)/.bench_build/gate; \
	rm -rf "$$out"; mkdir -p "$$out"; git worktree prune; \
	git worktree add --detach "$$out/base" $(BASE) >/dev/null; \
	trap 'git worktree remove --force "$$out/base"' EXIT; \
	echo "bench-gate: base=$$(git rev-parse --short $(BASE)) pairs=$(PAIRS) GOMAXPROCS=$$GOMAXPROCS GOGC=$$GOGC"; \
	for w in $(BENCH_WORKLOADS); do for i in $$(seq 1 $(PAIRS)); do \
		order="base head"; if [ $$((i % 2)) -eq 0 ]; then order="head base"; fi; \
		for side in $$order; do \
			dir=$(CURDIR); if [ $$side = base ]; then dir=$$out/base; fi; \
			printf '%s %s seed=%s: ' $$side $$w $$i; \
			(cd "$$dir" && bash benchmark/run.sh --workload $$w --seed $$i --seconds 10 -json "$$out/$$side.jsonl") | grep 'failed=0 correct=true' \
				|| { echo 'run failed or answered wrongly'; exit 1; }; \
		done; \
	done; done; \
	.bench_build/benchmark -compare "$$out/base.jsonl" "$$out/head.jsonl"

# Non-test Go lines outside benchmark/ — the number ROADMAP aim 2 and the
# simplicity PRs report.
loc:
	@git ls-files '*.go' ':!*_test.go' ':!benchmark' | xargs cat | wc -l

# Processes this checkout left running (see scripts/leftovers.sh); exits 1
# if there are any. Run it before handing a change in.
leftovers:
	@bash scripts/leftovers.sh
