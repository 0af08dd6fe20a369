#!/usr/bin/env bash
# Builds and runs the JAMM event-plane benchmark. Run it from the root of
# a checkout of the repository:
#
#   bash eventbench/run.sh --workload relay_interleaved --seed 1 --seconds 30 --trace 0
#   bash eventbench/run.sh --selftest
#
# Everything it builds or writes (Go build cache, binary, archives, span
# files) stays under .bench_build/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$here/../go.mod" ] || [ ! -d "$here/../internal/gateway" ]; then
	echo "eventbench: the jamm module is not at $here/.. — run from a full checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/bin/eventbench" .)
if rev=$(git -C "$here/.." describe --always --dirty --abbrev=40 2>/dev/null); then
	export BENCH_COMMIT="$rev"
fi
exec "$out/bin/eventbench" "$@"
