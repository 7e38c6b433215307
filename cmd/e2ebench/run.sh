#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the repository root,
# passing its arguments through (see README.md in this directory).
# Every build product, cache, temporary file and log stays under
# .bench_build in the current directory, so a run writes nothing
# outside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/asipdse ] || [ ! -d cmd/mat2cd ]; then
	echo "run.sh: run from the repository root (go.mod, cmd/asipdse and cmd/mat2cd not found)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
# With telemetry on (its default, local mode), every go command starts a
# detached upload process that can outlive it; turning it off in this
# private config directory keeps the benchmark from leaving any behind.
printf off > "$build/config/go/telemetry/mode"

go build -o "$build/cmd/e2ebench" ./cmd/e2ebench
exec "$build/cmd/e2ebench" "$@"
