#!/usr/bin/env bash
# Builds the benchmark and the parmbfd server from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload embed --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binaries and the spans
# of traced runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
cd "$root/perfbench"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/parmbfd" parmbf/cmd/parmbfd >&2
cd "$root"
exec "$out/bin/perfbench" -parmbfd "$out/bin/parmbfd" -work "$out/work" "$@"
