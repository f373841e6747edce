#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root. Everything it builds or writes stays under
# .bench_build/ in the checkout.
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash e2ebench/run.sh --repeat <n> [--workload <name>] [--seconds <s>]
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "e2ebench: not a checkout of the repository: go.mod or internal/ is missing" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
