#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds khazbench from source and runs
# it with the driver's arguments (--workload --seed --seconds --trace).
# Everything the build and the run write — compiler cache, binary, store
# directories — stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/khazbench" ./cmd/khazbench)
exec "$out/khazbench" "$@"
