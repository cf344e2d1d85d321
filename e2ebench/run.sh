#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# from the checkout root. All build state (Go build cache, temp files, the
# binary, trace files and checkpoint directories) stays under
# .bench_build/ in the checkout.
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd e2ebench && go build -trimpath -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
