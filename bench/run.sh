#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache included, so nothing
# is written outside it) and runs it from the checkout root. All arguments
# go to the benchmark; see bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/campaignbench" .)
cd "$root"
exec "$build/campaignbench" "$@"
