#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Everything the build writes stays in .bench_build at the root.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= \
	GOENV=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
