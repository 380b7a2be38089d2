#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, temp data dirs, spans) stays
# under .bench_build/ at the root of the checkout. Build output goes to
# standard error; the benchmark's result is the last line of standard output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --tmp "$build/tmp" --spans "$build/spans" "$@"
