#!/usr/bin/env bash
# Builds the perfbench binary from source into .bench_build/ at the
# repository root, then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-scale --seed 42 --seconds 30 --trace 0
#
# The Go build and module caches live under .bench_build/ too, so the
# benchmark reads and writes nothing outside the checkout beyond the Go
# toolchain itself. The build fails (and so does this script) when the
# simulator sources are not next to perfbench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
