#!/bin/sh
# Build the benchmark from source and run it, writing nothing outside the
# checkout it is started in (the root of the repo): the Go build cache,
# temporary files, GOPATH and the go command's own config directory
# (telemetry counters, go/env) all go under .bench_build/.
#
#   sh bench/run.sh --workload grid_launch --seed 7 --seconds 10 --trace 0
#   sh bench/run.sh -seed 42                    every workload, both runs
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
# With telemetry in its default "local" mode the first go command to see a
# new config directory starts a detached "go ** telemetry **" sidecar that
# outlives it. Mode "off" (what `go telemetry off` writes) starts none, so
# no process is left behind on any way out of this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
