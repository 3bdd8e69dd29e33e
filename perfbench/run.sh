#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload qa-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build artefact (the binary, the
# Go build cache, the toolchain's temporary and config directories) lives
# under .bench_build/, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" \
	GOMODCACHE="$out/go-mod" \
	GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
