#!/usr/bin/env bash
# Builds the pradram benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload mix2_pra --seed 1 --seconds 20 --trace 0
# Every build artefact (binary, Go build cache) lands in .bench_build/ under
# the current directory, so nothing is read or written outside the tree.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/pradram-bench.tmp" . && mv -f "$out/pradram-bench.tmp" "$out/pradram-bench")
exec "$out/pradram-bench" "$@"
