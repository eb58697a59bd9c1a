#!/usr/bin/env bash
# Fault-matrix stress run: builds the tree under ASan+UBSan with the
# stress tier enabled and sweeps the deterministic recovery scenarios
# across ten seed bases (100 RNG seeds total), plus two property sweeps
# of ten bases x five seeds each: 50 random event histories through the
# coalescing watch consumer, and 50 lossy 3-replica histories checked for
# anti-entropy digest upkeep and convergence within two rounds.  A
# failing run prints the YANC_FAULT_SEED / YANC_PROP_SEED that reproduces
# it — replay with:
#   YANC_FAULT_SEED=<seed> build-stress/tests/driver_test \
#       --gtest_filter='DriverFaultMatrix.*'
#   YANC_PROP_SEED=<seed> build-stress/tests/batch_prop_test \
#       --gtest_filter='BatchPipelineProperty.*'
#   YANC_PROP_SEED=<seed> build-stress/tests/dist_test \
#       --gtest_filter='AntiEntropyProperty.*'
#
# The `cluster` preset runs only the cluster chaos sweep (20 seeds of
# randomized node-kill / partition / lease-delay schedules against the
# 3-node active cluster; docs/ROBUSTNESS.md "Cluster failover"):
#   scripts/stress.sh cluster
# Replay one seed with:
#   YANC_FAULT_SEED=<seed> build-stress/tests/cluster_test \
#       --gtest_filter='ClusterChaos.*'
# Usage: scripts/stress.sh [cluster] [build-dir]   (default: build-stress)
set -euo pipefail

cd "$(dirname "$0")/.."
PRESET="all"
if [[ "${1:-}" == "cluster" ]]; then
  PRESET="cluster"
  shift
fi
BUILD_DIR="${1:-build-stress}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DYANC_SANITIZE=address,undefined \
  -DYANC_STRESS=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error makes UBSan findings fail the run instead of just logging.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=1"
if [[ "$PRESET" == "cluster" ]]; then
  ctest --test-dir "$BUILD_DIR" -R '^stress_cluster_seed' \
    --output-on-failure -j "$(nproc)"
else
  ctest --test-dir "$BUILD_DIR" -L stress --output-on-failure -j "$(nproc)"
fi
