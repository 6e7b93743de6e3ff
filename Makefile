# Development targets. CI (.github/workflows/ci.yml) runs the same steps.

FUZZTIME ?= 30s
FUZZ_TARGETS := FuzzDifferential FuzzMetamorphic FuzzHashTree FuzzEncodeRoundTrip FuzzSortKernel
# Root-package fuzz targets (seed corpus under testdata/fuzz/).
FUZZ_TARGETS_ROOT := FuzzIncrementalMaintenance
# WAL fuzz targets (seed corpus under internal/wal/testdata/fuzz/).
FUZZ_TARGETS_WAL := FuzzWALReplay
# Segment fuzz targets (seed corpus under internal/segment/testdata/fuzz/).
FUZZ_TARGETS_SEGMENT := FuzzSegmentReader

.PHONY: build vet test short race chaos fuzz corpus serve-smoke ingest-smoke wal-smoke adaptive-smoke segment-smoke edge-smoke bench-smoke bench-e2e bench-gate loc leftovers

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

# The heavy experiment sweeps skip themselves under -race; the algorithms'
# race coverage comes from core/cluster/mpi/oracle.
race:
	go test -race -timeout 15m ./...

chaos:
	go test -race -timeout 10m -count=1 -run $(CHAOS_RUN) $(CHAOS_PKGS)

# Run each fuzz target for $(FUZZTIME). Checked-in corpus entries under
# internal/oracle/testdata/fuzz/ and testdata/fuzz/ also replay as
# regression tests in `make test`.
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

# The serving layer's correctness surface under -race: the internal/serve
# unit suite (cache invariants, singleflight, ancestor selection), the
# root-package differential oracle (served answers byte-identical to the
# legacy leaf rescan and full Compute, concurrent queriers under eviction
# pressure), and the serve experiment's live ≥5× speedup check.
serve-smoke:
	go test -race -timeout 10m -count=1 ./internal/serve
	go test -race -timeout 10m -count=1 -run 'Serving|AnswerRejects' .
	go test -race -timeout 10m -count=1 -run 'TestServe_' ./internal/exp

# The incremental-maintenance correctness surface under -race: the
# internal/ingest unit suite (commit engine, delete validation, version
# retention) and internal/serve delta folds, the root-package maintenance
# oracle (fuzzed mutation scripts proven cell-for-cell against scratch
# recompute at every version, metamorphic laws, concurrent readers pinned
# to versions while a writer commits), and the ingest experiment's live
# commit-beats-recompute and hit-rate-preservation checks.
ingest-smoke:
	go test -race -timeout 10m -count=1 ./internal/ingest ./internal/serve
	go test -race -timeout 10m -count=1 -run 'IncrementalMaintenance|Metamorphic|ConcurrentReadersPinned' .
	go test -race -timeout 10m -count=1 -run 'TestIngest_' ./internal/exp

# The durability correctness surface under -race: the internal/wal unit
# suite (framing, rotation, torn-tail and bit-flip truncation, transient
# retry, the FaultFS crash sweep), the ingest crash-recovery oracle (kill
# at every mutating filesystem op — with and without bit flips — and
# prove the recovered cube is cell-for-cell a committed prefix), and the
# root-package durable round trip (dictionary extensions, time travel,
# on-disk restart).
wal-smoke:
	go test -race -timeout 10m -count=1 ./internal/wal ./internal/ingest
	go test -race -timeout 10m -count=1 -run 'Durable|OpenDurable' .

# The adaptive-admission correctness surface under -race: the internal/serve
# policy suite (plan determinism, cost-aware eviction, background fills,
# commit handoff), the commit-vs-background-fill race test, the root-package
# adaptive-vs-LRU equivalence oracle (byte-identical answers across budgets,
# commits and time travel, with and without a background executor), and the
# adaptive experiment's live hit-rate/latency win over LRU.
adaptive-smoke:
	go test -race -timeout 10m -count=1 ./internal/serve
	go test -race -timeout 10m -count=1 -run 'TestCommitRacesBackgroundFills' ./internal/ingest
	go test -race -timeout 10m -count=1 -run 'TestAdaptive' .
	go test -timeout 10m -count=1 -run 'TestAdaptive_' ./internal/exp

# The columnar cold-tier correctness surface under -race: the
# internal/segment unit suite (bit-packing, zone-map pruning, checksummed
# framing, bit-flip/truncation detection), the out-of-core spill kernel's
# differential and budget-bound tests, the root-package segment oracle
# (flush→load→Answer byte-identical round trip including dictionary
# extensions, cold-tier answers cell-for-cell equal to the warm server
# with measured-I/O assertions, out-of-core BUC/BPP equal to in-memory
# Compute across budgets forcing multi-level spill), and the segment
# experiment's live cold/warm equality and budget checks.
segment-smoke:
	go test -race -timeout 10m -count=1 ./internal/segment
	go test -race -timeout 10m -count=1 -run 'TestSpill' ./internal/core
	go test -race -timeout 10m -count=1 -run 'SegmentRoundTrip|ColdAnswerMatchesWarm|ComputeOutOfCore' .
	go test -race -timeout 10m -count=1 -run 'TestSegment_' ./internal/exp

# The HTTP-edge correctness surface under -race: the httpserve unit and
# golden wire-format suite (admission, identical-query flights, streaming,
# cancellation), icecube's flag table and its serve-until-signalled
# shutdown test, benchguard's parser and gate, and the root-package
# metrics-monotonicity tests (CacheMetrics/CuboidStats/ColdCube.Metrics
# hammered by readers while queries and commits run). Latency is not
# measured here — bench-gate is the one place that is.
edge-smoke:
	go test -race -timeout 10m -count=1 ./internal/httpserve ./cmd/icecube ./cmd/benchguard
	go test -race -timeout 10m -count=1 -run 'MetricsConcurrentReaders' .

# One pass over the paper-figure benchmarks, snapshotted to BENCH_<date>.json
# and gated against bench/baseline.json. Only allocs/op regressions fail —
# the sort/partition kernels are zero-allocation in steady state, so the
# count is deterministic; ns/op on shared runners is too noisy to gate.
# -strict makes a benchmark that is absent from the baseline a failure, so
# every new benchmark must be frozen into bench/baseline.json in its own PR.
bench-smoke:
	go test -run xxx -bench 'BenchmarkFig|BenchmarkSec5_1|BenchmarkServe|BenchmarkAdaptive|BenchmarkCommit|BenchmarkIngest|BenchmarkWAL|BenchmarkRecover|BenchmarkSegment|BenchmarkSpill' -benchmem -benchtime 1x -timeout 30m . | \
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
