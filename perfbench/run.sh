#!/usr/bin/env bash
# Builds wmx and the benchmark harness from source, then runs the harness.
#
#   bash perfbench/run.sh --workload report|sweep-cold|serve-mixed \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build output, Go build cache and
# scratch file stays under .bench_build/ in that root (CARGO_TARGET_DIR, if
# set, names the directory instead). The builds are incremental, so only the
# first run in a checkout pays for compiling the standard library. Without
# the repository's sources next to perfbench/ the build fails and the script
# exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
dir=${CARGO_TARGET_DIR:-.bench_build}
case "$dir" in /*) out=$dir ;; *) out="$root/$dir" ;; esac
case "$out" in "$root"/*) ;; *) out="$root/.bench_build" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The Go tool's caches, temporary files, module path and user config
# (go env file, telemetry counters) all live under $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/wmx" ./cmd/wmx
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --out "$out" --wmx "$out/wmx" "$@"
