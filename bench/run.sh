#!/bin/sh
# Builds the benchmark harness and runs it from the repository root:
#
#   bash bench/run.sh --workload cold_all --seed 1 --seconds 15 --trace 0
#
# Every build output and Go cache lives under .bench_build in the root, so
# a run reads and writes nothing outside the checkout. The harness itself
# builds cmd/rebase from the same tree. Outside a full checkout (no root
# go.mod) the harness build fails and the script exits nonzero.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$root"
go -C bench build -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
