#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#   sh perfbench/run.sh --workload fig12 --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Everything the build writes (the
# binary, the Go build cache, the Go config and telemetry directory) goes
# under $CARGO_TARGET_DIR, or .bench_build when that is unset, so a run
# writes nothing outside the repository and fetches nothing: the benchmark
# module depends only on the repository's own module.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
