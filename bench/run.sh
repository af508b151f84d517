#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it, passing every
# argument through. Run it from the root of a checkout:
#
#   bash bench/run.sh                                   # everything
#   bash bench/run.sh --workload w16-steady --seed 7 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the harness's reports all stay
# under .bench_build/ in the checkout, and the build never touches the
# network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go -C bench build -o "$out/upmbench" .
exec "$out/upmbench" --out "$out" "$@"
