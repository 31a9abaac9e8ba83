#!/usr/bin/env bash
# Builds the host-side benchmark from the checkout's sources and runs it from
# the repository root. All build state (Go build cache, temp files, the
# binary) stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-reps N | -seconds S] [-trace] [-out FILE]
#   bash bench/run.sh compare A.json B.json
#
# See bench/README.md for the workloads and metrics.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOENV=off
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$build/concertbench" .)
cd "$root"
exec "$build/concertbench" "$@"
