GO ?= go

.PHONY: all build test race cover bench bench-check sweep examples clean

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

# The benchmark gate CI runs: the working tree against HEAD~1 (DESIGN.md §16).
bench-check:
	$(GO) run ./ci/benchcompare HEAD~1

# Regenerate every table and figure of the paper (EXPERIMENTS.md input), as CI checks it.
sweep:
	$(GO) run ./cmd/sweep -all -class W -steady -quiet > experiments_classW.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/datadist
	$(GO) run ./examples/recordreplay
	$(GO) run ./examples/numafuture
	$(GO) run ./examples/replication

clean:
	$(GO) clean ./...
