#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in the working directory: the Go build
# cache, the binary, temporary files, results and trace reports.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
here="$(cd "$(dirname "$0")" && pwd)"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
