#!/usr/bin/env bash
# Builds the benchmark and the entry points it drives from this
# checkout's source, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload analyze --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bgpgen" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/bin/" ./cmd/bgpgen ./cmd/coanalyze ./cmd/bgpd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" --work "$out/work-$$" "$@"
