#!/usr/bin/env bash
# Builds hylo-perf from this checkout and runs it with the arguments given:
#
#   bash perf/run.sh --workload kid_deep_local --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write — Go's build and module caches, its telemetry counters and temporary
# files, the binary, the workloads' scratch directories — goes under
# .bench_build in the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOFLAGS=-buildvcs=false
# The benchmark needs no module outside the checkout; never go looking.
export GOPROXY=off GOTOOLCHAIN=local

# mat picks fused multiply-add or mul+add kernels by a timing race at start
# up, which changes speed and the last bit between processes. Pin the family
# (mul+add unless the caller chose) so that every run computes the same way.
export HYLO_FMA=${HYLO_FMA:-0}

(cd "$root/perf" && go build -o "$build/hylo-perf" ./cmd/hylo-perf)
exec "$build/hylo-perf" "$@"
