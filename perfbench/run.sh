#!/usr/bin/env bash
# Builds the perfbench harness from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload path4-zipf --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, run records, spill files) goes under
# $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-path" "$build/tmp" "$build/config"

export GOCACHE=$build/go-cache GOPATH=$build/go-path GOMODCACHE=$build/go-path/mod \
	GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd perfbench && go build -buildvcs=false -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" --outdir "$build/perfbench-out" --commit "$commit" "$@"
