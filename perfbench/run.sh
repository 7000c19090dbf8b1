#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# Run it from anywhere inside the checkout. The binary, the Go build
# cache and the span files all stay under .bench_build/ at the root of
# the checkout; the build needs no network and no module downloads.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/perfbench"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
	go build -o "$build/perfbench" .
)
cd "$root"
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
