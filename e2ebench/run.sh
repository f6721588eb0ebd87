#!/bin/sh
# run.sh builds the benchmark harness from source and runs one workload.
# Run it from the repository root:
#
#	bash e2ebench/run.sh --workload batch-twitter --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and generated input lives under
# .bench_build/ in the repository root; nothing is written elsewhere.
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/jsoninfer" ] || [ ! -d "$root/cmd/schemad" ]; then
	echo "e2ebench: $root is not the repository root (need go.mod, cmd/jsoninfer and cmd/schemad)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" -root "$root" "$@"
