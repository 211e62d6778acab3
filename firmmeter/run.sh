#!/usr/bin/env bash
# Builds the FirmMeter benchmark from the sources of this checkout and runs
# it with the given arguments, e.g.
#
#   bash firmmeter/run.sh --workload corpus-lint --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch data and trace files.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

# The build reads only the toolchain and this checkout: no module proxy,
# no toolchain download, no telemetry or config under the user's home.
(
	cd firmmeter
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off \
		go build -o "$build/firmmeter" .
) >&2

TMPDIR="$build/tmp" exec "$build/firmmeter" "$@"
