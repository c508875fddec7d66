#!/usr/bin/env bash
# Builds the benchmark driver from source into .bench_build inside the
# checkout and runs it there; every argument is passed through. The Go build
# and module caches are kept inside the checkout too, so a run reads and
# writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$here" && go build -o "$build/wavebench" .)
cd "$root"
exec "$build/wavebench" "$@"
