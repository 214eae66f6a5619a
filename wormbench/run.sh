#!/bin/sh
# Builds the wormbench binary from the checkout's sources and runs it with
# one P. Run it from the repository root; every argument is passed on:
#
#   sh wormbench/run.sh --workload alo-saturated --seed 1 --seconds 25 --trace 0
#   sh wormbench/run.sh steady --runs 10 --seconds 25
#
# Build outputs, the Go build cache included, stay under .bench_build/ in
# the working directory, and the toolchain is never fetched.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
if ! GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off \
	go -C "$root/wormbench" build -o "$build/wormbench" .; then
	echo "wormbench: build failed (run from the repository root)" >&2
	exit 2
fi
GOMAXPROCS=1 exec "$build/wormbench" "$@"
