#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root with the harness flags, for example:
#
#   bash e2ebench/run.sh --workload hot-tables --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/e2ebench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
