# Single source of truth for build/test/bench invocations: CI (see
# .github/workflows/ci.yml) and local workflows run the same targets, so a
# green `make race bench` locally means a green pipeline.

GO ?= go

# Benchmarks guarded by CI: the partitioner and the scheduling policies —
# the two hot paths of an epoch. Keep in sync with BENCH_BASELINE.txt.
BENCH_PATTERN ?= Partition|Schedule|Place
BENCH_COUNT   ?= 5

# Per-target budget for the fuzz smoke run (each PartitionToFit invariant
# target gets this much generated-input time on top of the seed corpus).
FUZZTIME ?= 10s

# Scaling sweep shape: which generator sizes BenchmarkPartitionScaling runs
# (the guard reads only the 500k power-law cells) and how many repetitions
# feed the min-vs-min speedup ratios. Each 500k repetition is minutes of
# wall-clock, so the count stays small; the guard compares minima, which
# converge fast.
SCALING_SIZES ?= 500k
SCALING_COUNT ?= 2

# Allocation ceiling for the 100k allocs row (see allocs-guard):
# steady-state is O(leaves + workers) — measured 64k allocs/op serial and
# 77k at p8 for the ~1250-leaf tree (~50/leaf: tree nodes, leaf slices,
# goroutine fan-out). The ceiling leaves ~2.6x headroom; coarsening or FM
# scratch allocated per call instead of from the arena multiplies that by
# the level count across ~2500 bisects. This dynamic ceiling pairs with the
# static allocfree gate in `make lint`: the analyzer rejects individual escape-to-heap sites in
# //goldilocks:hotpath functions at compile time, while this guard catches
# allocation growth the escape analysis cannot see (pool misses, input-
# shaped amortization breaking down).
ALLOCS_CEILING_100K ?= 200000

.PHONY: all build test race bench bench-json telemetry-overhead allocs-guard scaling-bench scaling-guard crash-replay-guard inspect-guard fmt fmt-check vet lint fuzz-smoke ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Benchmark the guarded hot paths; pipe through tee so CI can archive the
# raw output and benchstat can diff it against BENCH_BASELINE.txt.
bench:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -run '^$$' -count=$(BENCH_COUNT) ./... | tee bench.txt

# Machine-readable benchmark summary: collapse bench.txt (rerunning the
# benchmarks if it is absent) to per-benchmark medians in BENCH_PR10.json.
# CI uploads the file as an artifact next to the raw bench.txt.
bench-json:
	@[ -f bench.txt ] || $(MAKE) bench
	$(GO) run ./cmd/benchjson -o BENCH_PR10.json bench.txt
	@echo "wrote BENCH_PR10.json"

# The parallel scaling sweep: data-center-sized graphs (opt-in via
# GOLDILOCKS_SCALING_SIZES because a 500k cell costs minutes per
# repetition), one iteration per repetition — PartitionToFit at these sizes
# runs long enough that -benchtime 1x is already a stable sample, and the
# guard consumes minima across $(SCALING_COUNT) repetitions anyway.
scaling-bench:
	GOLDILOCKS_SCALING_SIZES=$(SCALING_SIZES) $(GO) test \
		-bench 'BenchmarkPartitionScaling/(sharded-)?powerlaw-500k' -run '^$$' \
		-benchtime 1x -count=$(SCALING_COUNT) -timeout 3h . | tee bench_scaling.txt

# Scaling guard: the blocking contract that partition parallelism (the
# recursive fan-out) actually buys wall-clock. Flat cells: p4 ≥ 1.6x over
# p1 on any host with ≥ 4 CPUs; hosts with ≥ 8 CPUs must also show p8 ≥ 2.5x.
# Sharded cells carry higher floors (p4 ≥ 1.8x, p8 ≥ 3.5x): the pre-split
# runs whole per-shard pipelines concurrently, so the serial FM share that
# caps the flat pipeline's scaling mostly disappears — if the sharded mode
# scales no better than flat, it has no reason to exist. Below 4 CPUs the
# premise is unmeasurable, so the target skips — without burning half an
# hour generating bench data first (benchjson applies the same
# runtime.NumCPU() gate internally).
scaling-guard:
	@if [ "$$(nproc)" -lt 4 ]; then \
		echo "scaling-guard: host has $$(nproc) CPUs (< 4); parallel speedup is not measurable — skipping"; \
	else \
		[ -f bench_scaling.txt ] || $(MAKE) scaling-bench; \
		$(GO) run ./cmd/benchjson -speedup 'BenchmarkPartitionScaling/powerlaw-500k' \
			-min-p4 1.6 -min-p8 2.5 -current bench_scaling.txt; \
		$(GO) run ./cmd/benchjson -speedup 'BenchmarkPartitionScaling/sharded-powerlaw-500k' \
			-min-p4 1.8 -min-p8 3.5 -current bench_scaling.txt; \
	fi

# Telemetry-overhead guard: BenchmarkPartitionTelemetry runs the same
# partition workload with the tracer off (noop — every span call takes the
# nil-receiver fast path) and on (traced — real span recording). Comparing
# the two within one run cancels out host speed, so the bound can be tight:
# traced may cost at most 5% over noop, min-vs-min across the BENCH_COUNT
# repetitions (interference noise is additive; the minimum estimates true
# cost with far less variance than the median).
telemetry-overhead:
	@[ -f bench.txt ] || $(MAKE) bench
	$(GO) run ./cmd/benchjson \
		-pair 'BenchmarkPartitionTelemetry/noop=BenchmarkPartitionTelemetry/traced' \
		-max-delta-pct 5 -current bench.txt

# Allocation-count guard: the CSR partitioning core runs out of pooled flat
# buffers, so steady-state PartitionToFit allocation counts are small and —
# unlike ns/op — identical across hosts. The ceiling leaves ~2x headroom
# over the worst measured median (152 allocs/op serial on mixture-1k; 946
# at p8 on mixture-5k, whose rows guard the cross-subproblem arena reuse —
# the tree itself is ~5x larger); an accidental per-level or per-vertex
# allocation blows past it immediately. CI runs this as a blocking step.
allocs-guard:
	@[ -f bench.txt ] || $(MAKE) bench
	$(GO) run ./cmd/benchjson -guard 'BenchmarkPartitionAllocs/mixture' \
		-metric allocs -max-allocs 2000 -current bench.txt
	GOLDILOCKS_ALLOCS_LARGE=1 $(GO) test \
		-bench 'BenchmarkPartitionAllocs/powerlaw-100k' -benchmem \
		-benchtime 1x -count 1 -run '^$$' -timeout 1h . | tee bench_allocs_large.txt
	$(GO) run ./cmd/benchjson -guard 'BenchmarkPartitionAllocs/powerlaw-100k' \
		-metric allocs -max-allocs $(ALLOCS_CEILING_100K) -current bench_allocs_large.txt

# Crash-recovery contract (blocking in CI): every-record-boundary
# crash/resume byte-identity under the race detector, plus a CLI-level
# crash → resume diff of the goldilocks-sim crashchaos output. See
# scripts/crash_replay_guard.sh and DESIGN.md §5.1.8.
crash-replay-guard:
	sh scripts/crash_replay_guard.sh

# Observability contract (blocking in CI): two same-seed runs must inspect
# byte-identically (critical-path, slo, diff exit 0) and a different-seed
# pair must diff to exit 1 naming the first diverging epoch, plus the
# p=1/4/8 parallelism byte-identity regression in internal/obs. See
# scripts/inspect_guard.sh and DESIGN.md §5.1.9.
inspect-guard:
	sh scripts/inspect_guard.sh

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# goldilocks-lint: the determinism & invariant analyzers (maporder,
# nondeterm, boundedgo, allocfree, arenapair, spanowner) over the whole
# module. Violations fail the build; see DESIGN.md §5.1.2 and §5.1.7 for
# the contracts and the //lint:ignore waiver form.
#
# The `go list -export -deps` walk dominates loader start-up on a warm
# build cache, and its output is a pure function of the module state, so
# it is cached in $(LINT_LIST_CACHE): keyed on the toolchain version in
# the file name and regenerated whenever go.mod, go.sum, or any Go source
# changes. The argument vector comes from the driver itself (-listargs
# prints lint.ListArgs verbatim), so the cache step can never drift from
# what the loader would run. Export paths inside the cache point into the
# go build cache — after `go clean -cache`, delete $(LINT_LIST_CACHE) (or
# `rm -rf .cache`) and rerun.
LINT_LIST_CACHE := .cache/lint-list-$(shell $(GO) env GOVERSION).json
LINT_GO_SOURCES := $(shell find . -name '*.go' -not -path './.git/*' -not -path './.cache/*')

$(LINT_LIST_CACHE): go.mod go.sum $(LINT_GO_SOURCES)
	@mkdir -p $(dir $@)
	$(GO) $$($(GO) run ./cmd/goldilocks-lint -listargs ./...) > $@

lint: $(LINT_LIST_CACHE)
	GOLDILOCKS_LINT_LISTFILE=$(abspath $(LINT_LIST_CACHE)) $(GO) run ./cmd/goldilocks-lint ./...

# Short fuzzing budget for the invariant targets — enough to shake out
# regressions in CI without burning minutes. Seed corpora under
# internal/{partition,vc}/testdata/fuzz also run as plain test cases in
# `test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPartitionToFit -fuzztime $(FUZZTIME) ./internal/partition
	$(GO) test -run '^$$' -fuzz FuzzPartitionAntiAffinity -fuzztime $(FUZZTIME) ./internal/partition
	$(GO) test -run '^$$' -fuzz FuzzShardStitch -fuzztime $(FUZZTIME) ./internal/partition
	$(GO) test -run '^$$' -fuzz FuzzVCPlaceAsymmetric -fuzztime $(FUZZTIME) ./internal/vc

ci: build fmt-check vet lint race
