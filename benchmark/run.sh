#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the root
# of a checkout. The benchmark is a Go module of its own that reaches the
# repository's packages through a replace directive, so outside a full
# checkout the build fails and nothing is printed. Every cache and temporary
# file of the Go toolchain stays inside the checkout, under .bench_build.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$here" && go build -o "$out/serving-benchmark" .) >&2
exec "$out/serving-benchmark" "$@"
