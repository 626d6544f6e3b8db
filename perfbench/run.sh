#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload select --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --steady
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# Keep the Go build cache, module path and the go command's own config
# files (telemetry) inside the checkout, and never reach the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
rev=unknown
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
go -C "$root/perfbench" build -trimpath -ldflags "-X main.commit=$rev" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
