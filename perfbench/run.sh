#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload fig7-cold --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries, the stores and the traces all stay
# under .bench_build/ in the working directory. Outside a full checkout
# (no ../go.mod) the build fails and the script exits nonzero.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/obscheck" simbench/internal/obs/obscheck) >&2
exec "$out/perfbench" -obscheck "$out/obscheck" -work "$out/perfbench-work" "$@"
