#!/usr/bin/env bash
# Builds the benchmark and the pskyline server from source, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload point-writes --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/pskyline" pskyline/cmd/pskyline
cd "$root"
exec "$out/perfbench" -server-bin "$out/pskyline" -workdir "$out/tmp" "$@"
