GO ?= go

.PHONY: all build test race cover bench bench-host bench-check sweep examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-package coverage, then the checked-in floors (ci/coverage_floors.txt).
cover:
	$(GO) test -cover ./...
	sh ci/check_coverage.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# Host-side (wall clock) benchmarks, recorded machine-readably: the raw
# scalar-vs-run sweep of the bulk-access fast path, the steady-detector
# per-iteration overhead, all five Figure 1 cells, the end-to-end
# prefix-forked Figure 4 sweep, the 64-CPU hierarchical Figure 4
# column (the toposcale sweep's unit of work), and the paper-scale
# Class W column with and without steady-state fast-forward. The combined
# `go test -json` stream is distilled by ci/benchjson into
# BENCH_host.json (benchmark name -> ns/op, stamped with host and date);
# check it in to extend the perf trajectory.
BENCH_STREAM = { $(GO) test -run xxx -bench 'BenchmarkTouch(Scalar|Run)' -benchmem -json ./internal/machine; \
	  $(GO) test -run xxx -bench 'BenchmarkSteadyStateDetect' -json ./internal/nas; \
	  $(GO) test -run xxx -bench 'BenchmarkFigure1|BenchmarkSweepFigure4All' -benchtime 3x -json .; \
	  $(GO) test -run xxx -bench 'BenchmarkSweepTopo64' -benchtime 3x -json .; \
	  $(GO) test -run xxx -bench 'BenchmarkSweepClassWSteady' -benchtime 1x -json .; }

bench-host:
	$(BENCH_STREAM) | $(GO) run ./ci/benchjson -o BENCH_host.json

# Regression gate (blocking in CI): re-run the same benchmarks and diff
# against the checked-in BENCH_host.json; exits non-zero on any slowdown
# beyond tolerance. Tolerances are per-benchmark, sized to observed
# run-to-run jitter on shared/virtualized runners: microbenchmarks swing
# up to ~2x between idle-host runs, sub-second figure cells ~60%, the
# multi-second sweeps ~30%. The gate therefore catches algorithmic
# regressions (a lost fast path, an accidental O(n^2)) rather than
# single-digit drift — the dated history in BENCH_host.json is the tool
# for watching drift.
bench-check:
	$(BENCH_STREAM) | $(GO) run ./ci/benchjson -compare BENCH_host.json \
	  -tol 'BenchmarkTouchScalar=100' -tol 'BenchmarkTouchRun=100' \
	  -tol 'BenchmarkSteadyStateDetect/homes=100' -tol 'BenchmarkSteadyStateDetect/homes+rows=100' \
	  -tol 'BenchmarkFigure1/BT=60' -tol 'BenchmarkFigure1/CG=60' -tol 'BenchmarkFigure1/FT=60' \
	  -tol 'BenchmarkFigure1/MG=60' -tol 'BenchmarkFigure1/SP=60' \
	  -tol 'BenchmarkSweepFigure4All/fork=40' \
	  -tol 'BenchmarkSweepTopo64=60' \
	  -tol 'BenchmarkSweepClassWSteady/plain=40' -tol 'BenchmarkSweepClassWSteady/steady=40'

# Regenerate every table and figure of the paper (EXPERIMENTS.md input).
sweep:
	$(GO) run ./cmd/sweep -all -class W | tee experiments_classW.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/datadist
	$(GO) run ./examples/recordreplay
	$(GO) run ./examples/numafuture
	$(GO) run ./examples/replication

clean:
	$(GO) clean ./...
