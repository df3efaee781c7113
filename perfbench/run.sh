#!/usr/bin/env bash
# Builds the govents end-to-end benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload fanout|stream|churn --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# The go command's caches and per-user state (telemetry counters under
# the user config directory) go to .bench_build/ too.
(
	export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
	cd "$root/perfbench" && go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
