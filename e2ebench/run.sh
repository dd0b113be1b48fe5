#!/bin/bash
# Builds e2ebench from the checkout's sources and runs it with the given
# arguments. Everything go writes — build cache, temporary files, the
# binary — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C e2ebench -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
