#!/bin/sh
# verify.sh — the tier-1 gate. Everything CI runs, runnable locally.
#
#   ./verify.sh          build + vet + repolint + tests (with -race),
#                        then vet + tests of the e2ebench harness
#   ./verify.sh -norace  same, but skip the race detector (slow machines)
#
# Exits non-zero on the first failure. See docs/ANALYSIS.md for what
# repolint checks and how to suppress a finding.
set -eu

cd "$(dirname "$0")"

race="-race"
if [ "${1:-}" = "-norace" ]; then
    race=""
fi

echo '>> go build ./...'
go build ./...

echo '>> go vet ./...'
go vet ./...

# -stats prints per-analyzer finding counts and wall time to stderr,
# so a slow or newly noisy analyzer is visible in every log.
echo '>> go run ./cmd/repolint -stats ./...'
go run ./cmd/repolint -stats ./...

echo ">> go test ${race} ./..."
# shellcheck disable=SC2086 # race is intentionally empty or one flag
go test ${race} ./...

# The benchmark harness is its own module (e2ebench/go.mod, replacing
# repro with this checkout), so ./... above does not reach it. Build
# and test it here so an API change it depends on fails this gate
# rather than the benchmark run.
echo '>> go -C e2ebench vet ./...'
go -C e2ebench vet ./...
echo ">> go -C e2ebench test ${race} ./..."
# shellcheck disable=SC2086 # race is intentionally empty or one flag
go -C e2ebench test ${race} ./...

# The chaos suite stresses the engine's retry/timeout/quarantine
# concurrency, so it always runs under the race detector — even when
# -norace skipped it for the bulk of the suite.
if [ -z "${race}" ]; then
    echo '>> go test -race ./internal/chaos'
    go test -race ./internal/chaos
fi

echo '>> verify.sh: all checks passed'
