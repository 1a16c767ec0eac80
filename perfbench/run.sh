#!/usr/bin/env bash
# Builds the repository's binaries and the benchmark program, then runs one
# workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload release --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the checkout (Go build cache included), so nothing outside it is touched.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dacserve" || ! -f "$root/BENCHMARK.json" ]] ||
	! grep -q '^module repro$' "$root/go.mod"; then
	echo "perfbench: run from the root of a repository checkout (go.mod, cmd/, BENCHMARK.json)" >&2
	exit 2
fi

build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR" "$build/bin"

go build -o "$build/bin/" ./cmd/dacrelease ./cmd/dacserve ./cmd/dacgateway
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
