#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload analyze --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temporary files) stays under
# .bench_build in the current directory. The benchmark is its own Go module
# that reaches the repository's packages through a replace directive, so the
# build fails, and the script exits non-zero, when the repository sources are
# not next to it.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

env GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go -C "$root/perfbench" build -o "$out/perfbench" .

exec "$out/perfbench" "$@"
