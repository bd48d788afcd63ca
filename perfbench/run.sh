#!/usr/bin/env bash
# Repository benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-tree --seed 1 --seconds 30 --trace 0
#
# It builds deviant, deviantd and the load generator (perfbench/*.go)
# from this checkout into .bench_build/, with every Go cache and config
# directory inside .bench_build/ too, then hands its arguments to the
# load generator. The last line of standard output is the result JSON.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

# A directory holding only the benchmark has no program to build: the
# build below fails and so does the run, without printing a result.
[ -f "$root/go.mod" ] || { echo "perfbench: no go.mod at $root; run from the repository root" >&2; exit 2; }

go build -o "$build/bin/" ./cmd/deviant ./cmd/deviantd >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/runs" "$@"
