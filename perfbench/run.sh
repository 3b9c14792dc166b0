#!/usr/bin/env bash
# Builds the benchmark and the sprinklerd daemon from this checkout's
# sources, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fig6-daemon --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every run's scratch files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
go -C "$root/perfbench" build -o "$out/perfbench" .
go -C "$root/perfbench" build -o "$out/sprinklerd" sprinklers/cmd/sprinklerd
exec "$out/perfbench" "$@"
