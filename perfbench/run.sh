#!/usr/bin/env bash
# Builds cfserve, cfgate and the benchmark from the checkout it is run
# in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload reduce-fresh --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes lands under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR" "$out/bin"
go build -o "$out/bin/" ./cmd/cfserve ./cmd/cfgate
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
