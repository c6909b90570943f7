#!/usr/bin/env bash
# Builds the benchmark into .bench_build under the current directory
# (the repository root) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-512x16 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and tool configuration also stay
# under .bench_build, and no module is fetched.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
(
	cd perfbench
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
