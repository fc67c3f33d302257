#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write (Go build cache, binary, temp
# dirs, result and trace files) stays under .bench_build/ of the checkout,
# so a run neither reads nor leaves anything outside it.
set -euo pipefail
root=$(pwd)
b="$root/.bench_build"
mkdir -p "$b/tmp" "$b/home"
export HOME="$b/home" XDG_CONFIG_HOME="$b/home/.config" \
	GOCACHE="$b/gocache" GOPATH="$b/gopath" GOMODCACHE="$b/gopath/pkg/mod" \
	GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -C "$root/bench" -o "$b/ptg-bench" .
exec "$b/ptg-bench" "$@"
