#!/usr/bin/env bash
# Builds blowfish-serve and the load generator from the checkout in the
# current directory, then runs the generator with the given arguments:
#
#   bash loadbench/run.sh --workload release-inmem --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and temporary file lands under .bench_build
# in the checkout, so the run reads and writes nothing outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/blowfish-serve || ! -f loadbench/go.mod ]]; then
	echo "loadbench: run from the repository root (cmd/blowfish-serve and loadbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/work"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local

go build -o "$out/blowfish-serve" ./cmd/blowfish-serve
go -C loadbench build -o "$out/loadbench" .
exec "$out/loadbench" -server "$out/blowfish-serve" -work "$out/work" "$@"
