#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind (binary, Go caches) stays in
# .bench_build/ inside the checkout; the module needs nothing downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$root/.bench_build/arborbench" .)
cd "$root"
exec "$root/.bench_build/arborbench" "$@"
