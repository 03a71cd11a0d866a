#!/usr/bin/env bash
# Builds egiserve and the benchmark from the checkout in the working
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ingest-many --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/bin/egiserve" ./cmd/egiserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/results" "$@"
