#!/usr/bin/env bash
# One-shot correctness gate: everything a change must pass before merge.
#
# Usage: scripts/check.sh [--fast] [--base <rev>]
#
#   default — configure + build (lockdep ON), full ctest tier (which
#             includes the yanc-lint and yanc-analyze gates and their
#             self-tests), lint.sh, yanc-analyze with the runtime
#             lock-coverage sweep (scripts/analyze.sh --coverage), a
#             lockdep-OFF release build proving the wrappers compile
#             away, the benchmark's smoke mode on reactive_l2 and
#             cluster_push (yancbench/run.py --smoke) plus one traced
#             read_monitor run at its full shape (4 reader threads, the
#             only workload that reads /yanc/.stats) — each must report
#             "correct": true and "failed": 0 — then ASan/UBSan over the
#             full suite, the stress sweeps under ASan/UBSan
#             (scripts/stress.sh: the 100-seed fault matrix, the 50-history
#             batched-pipeline and anti-entropy property sweeps and the
#             20-seed cluster chaos sweep, which exercise overflow rescan,
#             expiry, reconnect resync, anti-entropy and failover), and
#             TSan over the concurrency-sensitive suites (vfs, netfs, obs,
#             faults, dbg, fast; the set scripts/sanitize.sh tsan runs).
#   --base <rev>
#           — the perf gate: scripts/bench_ab.sh <rev>, an interleaved A/B
#             of the end-to-end benchmark between <rev> and the working
#             tree (10 pairs of every BENCHMARK.json workload, each side
#             built from its own checkout).  It fails when a run fails or
#             is not correct (exit 1) or a metric is worse than its bound
#             (exit 2).  Without --base the step is skipped.
#   --fast  — static-only yanc-analyze, stop before the coverage sweep
#             and sanitizer rebuilds.
set -euo pipefail

cd "$(dirname "$0")/.."
usage() {
  echo "usage: scripts/check.sh [--fast] [--base <rev>]" >&2
  exit 64
}
FAST=0
BASE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1; shift ;;
    --base) [[ $# -ge 2 ]] || usage; BASE="$2"; shift 2 ;;
    *) usage ;;
  esac
done

echo "=== build (YANC_DBG_LOCKS=ON) ==="
cmake -B build -S . -DYANC_DBG_LOCKS=ON
cmake --build build -j "$(nproc)"

echo "=== ctest (tier 1 + lint gate) ==="
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== lint ==="
scripts/lint.sh build

# Static lock-order gate: --fast stops at the static pass; the full run
# also sweeps tier 1 with edge dumping on and prints the static-vs-runtime
# lock-coverage report.
echo "=== yanc-analyze ==="
if [[ "$FAST" == 1 ]]; then
  scripts/analyze.sh build
else
  scripts/analyze.sh --coverage build
fi

echo "=== release build (YANC_DBG_LOCKS=OFF: wrappers must compile away) ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DYANC_DBG_LOCKS=OFF
cmake --build build-release -j "$(nproc)"
# dbg_test proves the lock wrappers still behave; smoke_cluster_failover
# proves a node-kill failover (elect -> re-home -> resync) end to end in
# the release configuration too.
ctest --test-dir build-release --output-on-failure -j "$(nproc)" \
  -R '(dbg_test|smoke_cluster_failover)'

# The benchmark's gated workloads at tiny sizes: every output checked,
# no op failed (yancbench/README.md).  Timings of a smoke run mean nothing.
# read_monitor runs at its full shape instead: its smoke shape has two
# threads, and its /yanc/.stats reads must hold up against four (one
# traced run: fixed rounds, so it stays short).
echo "=== yancbench smoke (reactive_l2, cluster_push, read_monitor) ==="
for workload in reactive_l2 cluster_push read_monitor; do
  mode=(--trace 0 --smoke)
  [[ "$workload" == read_monitor ]] && mode=(--trace 1)
  result=$(python3 yancbench/run.py --workload "$workload" --seed 1 \
             --seconds 2 "${mode[@]}" | tail -n 1)
  if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "$result"; then
    echo "yancbench smoke: $workload: $result"
    exit 1
  fi
  echo "--- $workload: correct, 0 failed"
done

# The one perf step: the benchmark's own workloads, run as interleaved
# pairs against the base revision, judged by BENCHMARK.json's bounds.
echo "=== perf: interleaved A/B against --base ==="
if [[ -n "$BASE" ]]; then
  scripts/bench_ab.sh "$BASE"
else
  echo "perf: skipped (give --base <rev> to compare the working tree with it)"
fi

if [[ "$FAST" == 1 ]]; then
  echo "check.sh --fast: OK (sanitizers skipped)"
  exit 0
fi

echo "=== asan+ubsan ==="
scripts/sanitize.sh asan

echo "=== stress sweeps (asan+ubsan) ==="
scripts/stress.sh

echo "=== tsan (concurrency suites + lockdep + SPSC ring / packet pool) ==="
scripts/sanitize.sh tsan

echo "check.sh: all gates passed"
