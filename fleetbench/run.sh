#!/usr/bin/env bash
# Builds the fleet benchmark from source inside the checkout and runs it;
# every argument is passed on (see main.go). All build state lives under
# .bench_build at the checkout root, so nothing is written elsewhere.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(pwd)/.bench_build/fleetbench
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/fleetbench" .) >&2
exec "$out/fleetbench" "$@"
