#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it:
#   bash e2ebench/run.sh --workload repro --seed 1 --seconds 25 --trace 0
# Run from the repository root. Every build artifact, Go cache and
# temporary store lands under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
