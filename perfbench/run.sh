#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload plan_large --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, Go telemetry/config) stays
# under .bench_build at the checkout root. The build fails, and the script
# exits non-zero without printing a result, when the soifft module the
# benchmark drives is not present next to it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
