#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload canteen --seed 1 --seconds 16 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ so the benchmark writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/cityhunter-bench" .)
exec "$out/cityhunter-bench" "$@"
