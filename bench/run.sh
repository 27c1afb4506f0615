#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout (build cache and temporaries under bench/out, nothing outside),
# then hand the arguments to it. Fails, printing no result, where the
# repository the benchmark measures is not around it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out/bin out/go-cache out/go-tmp out/go-path
export GOCACHE="$PWD/out/go-cache" GOTMPDIR="$PWD/out/go-tmp" GOPATH="$PWD/out/go-path"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -o out/bin/bench .
exec out/bin/bench "$@"
