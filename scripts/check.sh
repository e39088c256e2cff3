#!/bin/sh
# Tier-2 pre-PR gate: build, vet, repo-native static analysis (including
# the shapecheck symbolic length contracts), the compiler escape- and
# bounds-check-budget gates on the hot kernels, and the race-clean
# concurrency gate over the packages that spawn goroutines. Tier-1
# (go build ./... && go test ./...) must of course also pass; this script
# layers the discipline checks on top.
#
# Every gate runs even if an earlier one fails, so one CI run reports all
# broken gates; each gate prints its wall-clock time, and the script exits
# nonzero at the end if any gate failed.
#
# Run from anywhere inside the repo:
#
#   ./scripts/check.sh
cd "$(dirname "$0")/.." || exit 2

failures=""

run_gate() {
    name="$1"
    shift
    echo "== $name"
    start=$(date +%s)
    if "$@"; then
        status="ok"
    else
        status="FAIL"
        failures="$failures '$name'"
    fi
    end=$(date +%s)
    echo "-- $name: $status ($((end - start))s)"
}

run_gate "go build ./..." go build ./...
run_gate "go vet ./..." go vet ./...
# The conv kernels are SSE2 assembly on amd64 and a pure-Go twin elsewhere;
# cross-compiling for arm64 keeps the twin and every other package building
# off amd64 (no download needed: the toolchain cross-compiles itself).
run_gate "GOARCH=arm64 vet conv + build ./..." sh -c 'GOARCH=arm64 go vet ./internal/conv && GOARCH=arm64 go build ./...'
# The combined run doubles as the hard per-analyzer wall-time gate: an
# analyzer over its checked-in budget (or a budget entry out of sync with
# the suite) fails CI even with zero findings.
run_gate "soilint ./..." go run ./cmd/soilint -timing-budget-file timing_budget.json ./...

# The concurrency-lifecycle, resource-lifecycle, protocol-conformance and
# wire-taint analyzers also gate individually: a regression then names the
# failing check in the gate summary instead of hiding inside the combined
# run (the loader cache makes the repeats cheap).
for check in goleak chanlife deadlineflow lockorder poolflow closeflow wireconform taintflow intflow codecflow; do
    run_gate "soilint -checks $check" go run ./cmd/soilint -checks "$check" ./...
done
run_gate "escapebudget (hot-kernel escape gate)" go run ./cmd/escapebudget
run_gate "bcebudget (bounds-check gate)" go run ./cmd/bcebudget
run_gate "go test -race (concurrency gate)" go test -race ./internal/par ./internal/mpi ./internal/cluster ./internal/dist ./internal/serve ./internal/wire ./client
run_gate "go test -race (fault-injection sweep)" go test -race ./internal/faultcomm ./internal/testutil
# The numeric packages document their plans as safe for concurrent use, and
# conv's shared-output race hammer only has teeth under the race detector;
# -short keeps the large oracle sizes out of the race run.
run_gate "go test -race -short (numeric kernels)" go test -race -short ./internal/fft ./internal/conv ./internal/soi ./internal/codec .

# Fuzz smoke: each untrusted decode surface gets a brief randomized pass
# beyond the checked-in corpus — the wire frame codec and the payload block
# codecs. `go test -fuzz` accepts exactly one target per invocation, hence
# one gate per target.
for target in FuzzReadHeader FuzzReadVector FuzzFrameSequence; do
    run_gate "fuzz smoke $target" go test ./internal/wire -run '^$' -fuzz "^${target}\$" -fuzztime 5s
done
for target in FuzzCodecRoundTrip FuzzCodecDecode; do
    run_gate "fuzz smoke $target" go test ./internal/codec -run '^$' -fuzz "^${target}\$" -fuzztime 5s
done

if [ -n "$failures" ]; then
    echo "check.sh: FAILED gates:$failures"
    exit 1
fi
echo "check.sh: all gates green"
