#!/usr/bin/env bash
# Builds dnsguardd and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash guardbench/run.sh --workload verified-referrals --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/dnsguardd ] || [ ! -f guardbench/go.mod ]; then
	echo "guardbench: run from the root of a dnsguard checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -o "$out/dnsguardd" ./cmd/dnsguardd
(cd guardbench && go build -o "$out/guardbench" .)
exec "$out/guardbench" -guard "$out/dnsguardd" -out "$out" "$@"
