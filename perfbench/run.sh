#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload:
#
#   bash perfbench/run.sh --workload tpch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# disk backend's segment files and the trace spans all stay under
# .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.tmp" . && mv -f "$bin.tmp" "$bin")
exec "$bin" --out-dir "$out" "$@"
