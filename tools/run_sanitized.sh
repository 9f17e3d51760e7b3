#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
#   tools/run_sanitized.sh [address|undefined|address,undefined] [ctest args...]
#
# Uses a dedicated build tree per sanitizer set (build-asan, build-ubsan,
# build-asan-ubsan) so sanitized objects never mix with the regular build.
set -euo pipefail

SANITIZE="${1:-address}"
shift || true

case "$SANITIZE" in
  address) BUILD_DIR="build-asan" ;;
  undefined) BUILD_DIR="build-ubsan" ;;
  address,undefined | undefined,address) BUILD_DIR="build-asan-ubsan" ;;
  *)
    echo "usage: $0 [address|undefined|address,undefined] [ctest args...]" >&2
    exit 2
    ;;
esac

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

# RelWithDebInfo's flags without its -DNDEBUG: the sanitized tree also runs
# every assert in src/ (the other trees build with NDEBUG, so only this one
# checks, e.g., that a delivery lane's times never decrease).
cmake -B "$BUILD_DIR" -S . -DMIGR_SANITIZE="$SANITIZE" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"
