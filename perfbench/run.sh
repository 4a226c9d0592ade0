#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload himeno --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. Everything the build writes
# (binary, Go build cache and temporary files, Go's own config) stays in
# .bench_build there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
