# Developer entry points. `make lint` runs the exact sequence the CI
# lint job runs; `make ci` reproduces the whole pipeline locally.

# Pinned external linter versions — keep in lockstep with
# .github/workflows/ci.yml.
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all build test race cover lint fmt-check vet paylint lint-fixtures staticcheck govulncheck fuzz-smoke bench-check bench-smoke bench-wire bench-pairs loadgen-smoke paper-check ci

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/experiments/ ./internal/sim/ ./internal/selection/ ./internal/server/ ./internal/engine/ ./internal/geo/ ./internal/sat/ ./internal/client/ ./internal/incentive/ ./internal/mobility/ ./cmd/loadgen/ ./cmd/worker/ ./cmd/platform/

# Aggregate coverage across every package, with a function summary.
cover:
	go test -coverprofile=coverage.out -covermode=atomic ./...
	go tool cover -func=coverage.out | tail -n 1

# The full static-analysis gate: formatting, go vet, the repo's own
# paylint suite (determinism + aliasing invariants), staticcheck, and
# govulncheck — one command, matching CI exactly.
lint: fmt-check vet paylint staticcheck govulncheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	go vet ./...

paylint:
	go run ./cmd/paylint ./...

# The analyzer suite's own regression tests: every analyzer against its
# seeded-violation fixtures under internal/analysis/testdata/src, plus
# the CFG/dataflow unit tests. Fast enough to run on every analyzer
# change without waiting for the whole-repo gate.
lint-fixtures:
	go test ./internal/analysis/... ./cmd/paylint/

# staticcheck and govulncheck are external tools; install the pinned
# versions once with `make lint-tools` (needs network access).
staticcheck:
	@command -v staticcheck >/dev/null || { \
		echo "staticcheck not installed; run: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)" >&2; exit 1; }
	staticcheck ./...

govulncheck:
	@command -v govulncheck >/dev/null || { \
		echo "govulncheck not installed; run: go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)" >&2; exit 1; }
	govulncheck ./...

.PHONY: lint-tools
lint-tools:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

fuzz-smoke:
	go test -run FuzzSolverEquivalence -fuzz FuzzSolverEquivalence -fuzztime 30s ./internal/selection/
	go test -run FuzzBinaryRoundTrip -fuzz FuzzBinaryRoundTrip -fuzztime 15s ./internal/wire/binary/
	go test -run FuzzBinaryDecodeHardened -fuzz FuzzBinaryDecodeHardened -fuzztime 15s ./internal/wire/binary/
	go test -run FuzzJSONHandlers -fuzz FuzzJSONHandlers -fuzztime 15s ./internal/server/
	go test -run FuzzTLVHandlers -fuzz FuzzTLVHandlers -fuzztime 15s ./internal/server/
	go test -run FuzzRoundInfoJSON -fuzz FuzzRoundInfoJSON -fuzztime 15s ./internal/wire/
	go test -run FuzzNeighborCounts -fuzz FuzzNeighborCounts -fuzztime 15s ./internal/engine/
	go test -run FuzzTaskRoundCounts -fuzz FuzzTaskRoundCounts -fuzztime 15s ./internal/task/

# A short closed-loop run against a self-hosted platform in each codec:
# at least one round must complete with zero protocol errors (the
# TestLoadgenSmoke gate, runnable standalone too).
loadgen-smoke:
	go run ./cmd/loadgen -workers 25 -tasks 10 -codec json -duration 2s -min-rounds 3 -advance-after 100ms
	go run ./cmd/loadgen -workers 25 -tasks 10 -codec tlv -duration 2s -min-rounds 3 -advance-after 100ms

# The benchmark module's own tests (bench/ is a separate module, so
# `go test ./...` skips it): the mirror-vs-sim.Run equivalence, the
# --seed 1 goldens, and BENCHMARK.json consistency.
bench-check:
	cd bench && go test ./...

# Runs every benchmark once, including BenchmarkBeam (the dispatch-tuning
# grid recorded in BENCH_beam.json) and the root package's paper benchmarks.
bench-smoke:
	go test -run xxx -bench . -benchtime 1x -benchmem . ./internal/selection/ ./internal/sim/ ./internal/experiments/ ./internal/engine/ ./internal/geo/ ./internal/sat/ ./internal/wire/binary/

# The wire-codec grid at recording fidelity; the numbers at the repo root
# (BENCH_wire.json) came from this command plus a pair of loadgen runs.
bench-wire:
	go test -run xxx -bench . -benchtime 1000x -benchmem ./internal/wire/binary/

# Sizes a performance change: runs the repo benchmark alternately at BASE
# (a detached worktree under .bench_build/, removed on exit) and in the
# working tree for PAIRS pairs at seeds 400.., swapping which runs first
# each pair, and prints per end-to-end metric the median change/base
# ratio and the number of pairs the change won. Fails on any
# "correct": false. Not part of `make ci`: 10 pairs of 20 s take about
# eight minutes per workload.
BASE ?= HEAD
WORKLOAD ?= paper-sim
SECONDS ?= 20
PAIRS ?= 10
bench-pairs:
	go run ./scripts/benchpairs -base $(BASE) -workload $(WORKLOAD) -seconds $(SECONDS) -pairs $(PAIRS)

# Regenerates every figure and table at the paper's 100 trials, seed 1, and
# compares the output byte for byte with the committed golden (about 30 s
# on two CPUs). TestRunAllGolden holds the 2-trial output the same way on
# every `go test`. Both are amd64 goldens, like the seeded regression
# constants: Go allows fused multiply-add on other architectures, which
# may move a last digit there.
paper-check:
	go run ./cmd/experiments -all -trials 100 -seed 1 > paper-check.out
	cmp paper-check.out cmd/experiments/testdata/all-trials100-seed1.txt
	rm -f paper-check.out

ci: lint build test race bench-check fuzz-smoke bench-smoke loadgen-smoke paper-check
