#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-join --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) and
# every result file stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOENV=off

# The go command keeps its own settings under the user config directory.
mkdir -p "$build/config"
(cd "$here" && XDG_CONFIG_HOME="$build/config" HOME="$build" go build -o "$build/perfbench-bin" .)
cd "$root"
exec "$build/perfbench-bin" "$@"
