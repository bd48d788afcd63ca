# Developer entry points. `make ci` is the gate: vet, build, the full
# test suite under the race detector, and a benchmark smoke run that
# executes the serial/parallel pipeline benchmarks once each.

GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-json bench-gate perfbench-check obs-race service-race serve-smoke fleet-smoke jobs-smoke chaos-fleet-smoke fuzz-smoke soak-smoke chaos-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark sweep (slow; regenerates every table and figure).
bench:
	$(GO) test -bench=. -benchmem .

# One iteration of the pipeline scalability benchmarks — enough to catch
# a benchmark that no longer compiles or crashes, cheap enough for CI.
bench-smoke:
	$(GO) test -run='^$$' -bench='^BenchmarkAnalyze(Serial|Parallel)$$' -benchtime=1x .

# Pipeline + frontend benchmark snapshot, archived two ways: the current
# numbers overwrite BENCH_obs.json, and a dated entry is APPENDED to
# BENCH_trajectory.json so every PR's perf claim stays checkable against
# history. One iteration each — enough to keep the benchmarks honest in
# CI; run with BENCHTIME=5x (or more) for stable numbers.
BENCHTIME ?= 1x
bench-json:
	$(GO) test -run='^$$' -bench='^Benchmark(Analyze(Serial|Parallel|InstrumentedOff|InstrumentedOn|FleetTraceOff|FleetTraceOn)|Scanner|Preprocess|Parse|FleetScatter)$$' \
		-benchtime=$(BENCHTIME) -benchmem . | $(GO) run ./cmd/benchjson -append BENCH_trajectory.json > BENCH_obs.json

# Allocation regression gate: fail if BenchmarkAnalyzeParallel allocates
# more than 20% over the checked-in baseline (BENCH_baseline.json).
# allocs/op is iteration-count-independent, so one iteration gates
# reliably where ns/op would be noise.
bench-gate:
	$(GO) test -run='^$$' -bench='^BenchmarkAnalyzeParallel$$' -benchtime=$(BENCHTIME) -benchmem . \
		| $(GO) run ./cmd/benchjson -gate BENCH_baseline.json

# The repository benchmark (perfbench/) is its own Go module, so
# `go build ./...` never compiles it: vet and test it here, so an API
# change that breaks the benchmark fails CI instead of a benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# The observability layer under the race detector: tracer lane
# allocation and the metrics registry are hammered from many goroutines.
obs-race:
	$(GO) test -race ./internal/obs/...

# The service suite under the race detector (also part of `race`, but
# kept callable on its own for quick iteration on deviantd).
service-race:
	$(GO) test -race ./internal/service/...

# Boot deviantd, POST the quickstart corpus, assert the ranked reports
# match the CLI run bit for bit, then drain on SIGTERM.
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -v ./cmd/deviantd

# Boot a 3-worker + 1-coordinator fleet as separate processes, run the
# corpus through it cold and warm, assert the ranked reports match the
# CLI bit for bit, then kill a worker (output must not change) and
# drain the coordinator.
fleet-smoke:
	$(GO) test -run 'TestFleetSmoke' -v ./cmd/deviantd

# Boot deviantd, run the async job API end to end (submit → poll →
# result) and bit-compare the job's result body against a synchronous
# /v1/analyze at equal snapshot warmth, pin the CLI baseline write/use
# round trip, check job lifecycle events in the run journal, then drain.
jobs-smoke:
	$(GO) test -run 'TestJobsSmoke' -v ./cmd/deviantd

# Boot a 3-worker fleet whose coordinator has one transient network
# fault armed against every worker (-chaos) plus a durable -job-dir,
# assert the output stays bit-identical to the CLI through the chaos,
# two live membership reshapes (POST /v1/fleet/workers, SIGHUP
# -workers-file reload), and a SIGKILL + restart of the coordinator
# that must recover a finished job's bytes and re-run an interrupted
# one to the same bytes.
chaos-fleet-smoke:
	$(GO) test -run 'TestChaosFleetSmoke|TestChaosFlagValidation' -v ./cmd/deviantd

# Native coverage-guided fuzzing of the frontend, 30s per target, plus
# the deterministic fingerprint- and network-chaos-oracle runs: report
# fingerprints must be byte-identical across workers/memo/fleet shapes
# and invariant under the alpha-rename + function-reorder metamorphic
# transforms, and every transient net-fault class plus live membership
# reshapes must leave fleet output bytes untouched. Inputs that fail a
# fuzz target are written by the Go toolchain to the target's
# testdata/fuzz/<FuzzName>/ directory; check them in as regression
# seeds.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzScanner$$' -fuzztime=$(FUZZTIME) ./internal/ctoken
	$(GO) test -run='^$$' -fuzz='^FuzzPreprocess$$' -fuzztime=$(FUZZTIME) ./internal/cpp
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/cparse
	$(GO) test -run 'TestFingerprintOracle|TestNetChaosOracle' -v ./internal/fuzzgen

# Differential soak: 200 generated adversarial programs through the full
# pipeline under all nine equivalence oracles (workers, memoization,
# snapshot, metamorphic, quarantine determinism, fleet determinism,
# fingerprint stability, network chaos, no-crash/no-hang). Failing
# inputs land in testdata/fuzz/deviantfuzz/ and reproduce via
# `deviantfuzz -seed N -n 1`.
soak-smoke:
	$(GO) run ./cmd/deviantfuzz -n 200 -seed 1

# Fault-containment sweep: armed failpoints, budget exhaustion, torn and
# corrupted snapshot files, service panic recovery, and client retry
# behavior, all under the race detector — then the job-log recovery and
# eviction tests twenty times over, so a persist/publish ordering race
# cannot hide behind a lucky schedule.
chaos-smoke:
	$(GO) test -race -run 'Quarantine|Budget|Deadline|Disk|Persistent|Fault|Panic|Retry|TrapBait|Redact|Canonicalize|Injected|Rescatter|AllDead|CorruptAndMissing' \
		./internal/fault ./internal/core ./internal/snapshot ./internal/service ./internal/client ./internal/fuzzgen ./internal/dist ./cmd/deviant
	$(GO) test -count=20 -run 'JobRecovery|JobLog' ./internal/service

ci: vet build perfbench-check race bench-smoke bench-gate obs-race service-race serve-smoke fleet-smoke jobs-smoke chaos-fleet-smoke bench-json fuzz-smoke soak-smoke chaos-smoke
