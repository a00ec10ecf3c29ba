#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository:
#
#   bash perfbench/run.sh --workload smallbank --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# (.bench_build, or $CARGO_TARGET_DIR when set): the Go build cache, the
# binary and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -span-dir "$out/spans" "$@"
