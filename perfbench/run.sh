#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it with the
# given arguments. Everything the build writes (binary, Go build cache,
# temporary files) stays under .bench_build at the checkout root.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
