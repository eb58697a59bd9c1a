#!/usr/bin/env bash
# Builds the tree under a sanitizer and runs tests.
#
# Usage: scripts/sanitize.sh [asan|tsan] [build-dir]
#        scripts/sanitize.sh [build-dir]            (legacy: asan)
#
#   asan  — ASan+UBSan over the full test suite (default dir: build-asan)
#   tsan  — ThreadSanitizer over the concurrency-sensitive suites
#           (vfs_test, netfs_test, obs_test, faults_test; default dir:
#           build-tsan).  Extra ctest args after the build dir are passed
#           through, e.g. scripts/sanitize.sh tsan build-tsan -R vfs_test
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=asan
case "${1:-}" in
  asan|tsan) MODE="$1"; shift ;;
esac

if [[ "$MODE" == tsan ]]; then
  BUILD_DIR="${1:-build-tsan}"; shift || true
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DYANC_SANITIZE=thread
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  # halt_on_error turns any reported race into a test failure.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  if [[ $# -gt 0 ]]; then
    ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
  else
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
      -R '(vfs|netfs|obs|faults)_test'
  fi
else
  BUILD_DIR="${1:-build-asan}"; shift || true
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DYANC_SANITIZE=address,undefined
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  # halt_on_error makes UBSan findings fail the run instead of just logging.
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  export ASAN_OPTIONS="detect_leaks=1"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"
fi
