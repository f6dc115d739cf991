GO ?= go

.PHONY: all build test race vet fmt-check fuzz-list-check pool-check step-check lint fuzz fuzz-smoke bench bench-obs-smoke bench-alloc soak crash-soak chaos benchmark benchmark-smoke ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Vet both builds: the default one, and the armed failpoint build that only
# `chaos` otherwise compiles.
vet:
	$(GO) vet ./...
	$(GO) vet -tags failpoints ./...

# Formatting gate: fail (and name the offenders) if any file differs from
# gofmt's output.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Fuzzer gate: fail (and name the offenders) if any `func Fuzz*` in the tree
# has no line in fuzz-smoke running it from its own package, so a fuzzer that
# moves or is renamed cannot silently drop out of `ci` (`go test -fuzz` that
# matches no fuzzer passes).
fuzz-list-check:
	@smoke=$$(sed -n '/^fuzz-smoke:/,/^$$/p' $(firstword $(MAKEFILE_LIST))); \
	missing=$$(grep -rEo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]+' . | \
		sed -E 's#^(.*)/[^/]*:func (Fuzz.*)#\1 \2#' | \
		while read dir name; do \
			echo "$$smoke" | grep -qF -- "$$dir -run XXX -fuzz $$name " || echo "$$dir $$name"; \
		done); \
	if [ -n "$$missing" ]; then echo "fuzzers missing from fuzz-smoke:"; echo "$$missing"; exit 1; fi

# Storage gate: the analysis packages keep no process-global pools. Every
# summary and SOS generation is reused in place, handed by the engine's
# window to the call that builds its successor (DESIGN.md §12), so fail (and
# name the offenders) on any sync.Pool in internal/core, internal/sets or
# internal/lifeguard, tests included.
pool-check:
	@found=$$(grep -rn --include='*.go' 'sync\.Pool' internal/core internal/sets internal/lifeguard); \
	if [ -n "$$found" ]; then echo "sync.Pool in the analysis packages (reuse storage through the window instead):"; \
		echo "$$found"; exit 1; fi

# Step gate: the live frame loop and boot replay apply frames through one
# per-epoch step (internal/server/step.go, DESIGN.md §10), so a second
# per-epoch path cannot come back unnoticed. Fail (and name the offenders)
# on any FeedEpoch or Finish call in internal/server's non-test code outside
# step.go, and unless step.go makes each exactly once.
step-check:
	@found=$$(grep -rn -E '\.(FeedEpoch|Finish)\(' --include='*.go' --exclude='*_test.go' --exclude=step.go internal/server); \
	if [ -n "$$found" ]; then echo "FeedEpoch/Finish outside internal/server/step.go (apply frames through the step):"; \
		echo "$$found"; exit 1; fi; \
	for call in FeedEpoch Finish; do n=$$(grep -c "\.$$call(" internal/server/step.go); \
		if [ "$$n" != 1 ]; then echo "internal/server/step.go calls $$call $$n times, want 1"; exit 1; fi; done

# Static gate: formatting, go vet, the fuzzer list, the pool check and the
# step check, the cheap checks a change runs first.
lint: fmt-check vet fuzz-list-check pool-check step-check

race:
	$(GO) test -race ./...

# Short fuzz pass over every decoder, the event codec against its oracle,
# the LSOS view, the sorted-vector kernels, the address directory against
# the binary search it replaces, the thread-tagged wing row union against
# its byte model, the taintcheck SOS merge, the
# report detail builder and the Reports codec (the seed corpus always runs
# in `test`).
fuzz:
	$(GO) test ./internal/trace -run XXX -fuzz FuzzReadBinary -fuzztime 30s
	$(GO) test ./internal/trace -run XXX -fuzz FuzzStreamReader -fuzztime 30s
	$(GO) test ./internal/trace -run XXX -fuzz FuzzReadText -fuzztime 30s
	$(GO) test ./internal/trace -run XXX -fuzz FuzzEpochRowCodec -fuzztime 30s
	$(GO) test ./internal/proto -run XXX -fuzz FuzzServerFrameDecoder -fuzztime 30s
	$(GO) test ./internal/store -run XXX -fuzz FuzzWALDecoder -fuzztime 30s
	$(GO) test ./internal/sets -run XXX -fuzz FuzzOverlay -fuzztime 30s
	$(GO) test ./internal/sets -run XXX -fuzz FuzzSortedVec -fuzztime 30s
	$(GO) test ./internal/sets -run XXX -fuzz FuzzIntervalDirectory -fuzztime 30s
	$(GO) test ./internal/sets -run XXX -fuzz FuzzRowUnion -fuzztime 30s
	$(GO) test ./internal/lifeguard/taintcheck -run XXX -fuzz FuzzTaintSOS -fuzztime 30s
	$(GO) test ./internal/lifeguard -run XXX -fuzz FuzzReportDetail -fuzztime 30s
	$(GO) test ./internal/proto -run XXX -fuzz FuzzReportsJSON -fuzztime 30s

# Shorter fuzz pass for the CI gate: 10s per fuzzer, seeded from testdata/.
fuzz-smoke:
	$(GO) test ./internal/trace -run XXX -fuzz FuzzReadBinary -fuzztime 10s
	$(GO) test ./internal/trace -run XXX -fuzz FuzzStreamReader -fuzztime 10s
	$(GO) test ./internal/trace -run XXX -fuzz FuzzReadText -fuzztime 10s
	$(GO) test ./internal/trace -run XXX -fuzz FuzzEpochRowCodec -fuzztime 10s
	$(GO) test ./internal/proto -run XXX -fuzz FuzzServerFrameDecoder -fuzztime 10s
	$(GO) test ./internal/store -run XXX -fuzz FuzzWALDecoder -fuzztime 10s
	$(GO) test ./internal/sets -run XXX -fuzz FuzzOverlay -fuzztime 10s
	$(GO) test ./internal/sets -run XXX -fuzz FuzzSortedVec -fuzztime 10s
	$(GO) test ./internal/sets -run XXX -fuzz FuzzIntervalDirectory -fuzztime 10s
	$(GO) test ./internal/sets -run XXX -fuzz FuzzRowUnion -fuzztime 10s
	$(GO) test ./internal/lifeguard/taintcheck -run XXX -fuzz FuzzTaintSOS -fuzztime 10s
	$(GO) test ./internal/lifeguard -run XXX -fuzz FuzzReportDetail -fuzztime 10s
	$(GO) test ./internal/proto -run XXX -fuzz FuzzReportsJSON -fuzztime 10s

# GC-pressure gate (DESIGN.md §12, EXPERIMENTS.md "Allocation ablation").
# TestSteadyStateAllocBudget fails the build if the warm epoch loop
# allocates more than its fixed per-epoch budget, and TestWALAppendAllocBudget
# does the same for the durable store's append path, and TestCodecAllocs and
# TestEpochCodecAllocs for the event codec (a warm decode allocates nothing,
# an Epoch payload once); the -benchmem run prints the full-stack allocs/op
# for information (the tests are the gate).
bench-alloc:
	$(GO) test ./internal/core -count=1 -run TestSteadyStateAllocBudget -v
	$(GO) test ./internal/store -count=1 -run TestWALAppendAllocBudget -v
	$(GO) test ./internal/trace -count=1 -run TestCodecAllocs -v
	$(GO) test ./internal/proto -count=1 -run TestEpochCodecAllocs -v
	$(GO) test ./internal/server -run XXX -bench 'BenchmarkServerThroughput$$' -benchtime 10x -benchmem

# The butterflyd differential soak: concurrent sessions (and the
# connection-killing chaos variant) must match in-process RunStream exactly.
soak:
	$(GO) test ./internal/server -race -count=1 -run 'TestSoak'

# The crash soak (DESIGN.md §14): a real butterflyd subprocess over a durable
# store is SIGKILLed mid-stream, repeatedly, per fsync policy; the resumed
# session's final reports must be byte-identical to the in-process oracle.
crash-soak:
	$(GO) test ./internal/server -race -count=1 -run 'TestCrashSoak'

# The chaos gate (DESIGN.md §15): the failpoint plane's unit tests, then the
# fault-policy matrix (every registered site, store cells per fsync policy)
# against the multi-session differential soak plus the degraded-mode
# re-entry check — all under -race and the failpoints build tag. The default
# build compiles every failpoint hook to an inlinable no-op; this target is
# the only place the armed implementation runs.
chaos:
	$(GO) test ./internal/failpoint -race -count=1 -tags failpoints
	$(GO) test ./internal/server -race -count=1 -tags failpoints -run 'TestChaos|TestDegradedReentry'

# Driver microbenchmark (stream bytes in, reports out).
bench:
	$(GO) test ./internal/core -run XXX -bench 'BenchmarkDriverStream$$' -benchtime 3x -benchmem

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): all seven
# workloads, every end-to-end and per-layer metric.
benchmark:
	$(GO) run ./benchmark

# One short in-process workload for the CI gate. It is the only gate that
# compiles benchmark/ against internal/... and re-checks its golden report
# digests through both RunStream and Run; the last stdout line is the JSON
# result and must say correct with nothing failed.
benchmark-smoke:
	@out=$$($(GO) run ./benchmark --workload churn-local --seed 1 --seconds 2 --trace 0 | tail -n 1); \
	echo "$$out"; \
	echo "$$out" | grep -q '"correct":true' && echo "$$out" | grep -q '"failed":0[,}]' || \
		{ echo "benchmark-smoke: result is not correct:true, failed:0"; exit 1; }

# Telemetry smoke for the CI gate: one iteration of the instrumented driver
# and server benchmarks (the streaming pipeline with a registry and span
# recorder), proving those paths still run end to end.
bench-obs-smoke:
	$(GO) test ./internal/core -run XXX -bench BenchmarkDriverStreamObs -benchtime 1x
	$(GO) test ./internal/server -run XXX -bench BenchmarkServerThroughputObs -benchtime 1x

# The gate a change must pass before it lands. `lint` keeps the tree
# gofmt-clean and vet-clean; `race` runs the full test suite (including the
# butterflyd soak and the differential suites) under the race detector;
# `soak`, `crash-soak` and `chaos` repeat the server, kill -9 and
# fault-injection differentials explicitly so a cached `race` run cannot
# mask them, `fuzz-smoke` gives each decoder fuzzer a short budget beyond
# its checked-in seed corpus, `bench-alloc` fails the build if the
# steady-state epoch loop or the WAL append path starts allocating again,
# `bench-obs-smoke` proves the instrumented driver and server paths still
# run end to end, and `benchmark-smoke` proves the benchmark still builds
# and verifies its reports.
ci: lint build race soak crash-soak chaos fuzz-smoke bench-alloc bench-obs-smoke benchmark-smoke

clean:
	rm -f core.test server.test cpu.prof mem.prof
