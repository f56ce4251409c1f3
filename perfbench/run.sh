#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#   bash perfbench/run.sh --workload htap --seed 1 --seconds 20 --trace 0
# Every build and run artifact stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
