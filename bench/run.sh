#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#   sh bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, Go's own counters) goes under
# .bench_build/ at the root of the checkout, and the program runs with
# bench/ as its working directory, so nothing outside the checkout is
# touched. bench/ is a Go module of its own that imports the repository's
# packages through a replace directive; without the repository around it
# the build, and with it this script, fails.
set -eu
cd "$(dirname "$0")"
out=$(cd .. && pwd)/.bench_build
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bench" .
exec "$out/bench" "$@"
