#!/bin/bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the build
# writes (binary, Go build cache, temporary files) stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the benchmark builds the switch from source" >&2
	exit 1
fi
mkdir -p .bench_build/tmp .bench_build/config/go/telemetry
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" \
	GOPATH="$PWD/.bench_build/gopath" XDG_CONFIG_HOME="$PWD/.bench_build/config" \
	GOTOOLCHAIN=local
# With telemetry on (the default in a fresh config directory) the go command
# starts a detached child of itself that outlives the run; "off" starts none.
echo off >.bench_build/config/go/telemetry/mode
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
