#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it runs
# in, then runs it. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload table3-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout: the Go build cache, the
# binary, temporary files, the services' state directories and the
# exported traces.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" -dir "$out" "$@"
