#!/usr/bin/env bash
# One-shot correctness gate: everything a change must pass before merge.
#
# Usage: scripts/check.sh [--fast]
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
#             batched-pipeline property sweep and the 20-seed cluster
#             chaos sweep, which exercise overflow rescan, expiry,
#             reconnect resync and failover), and TSan over every suite
#             that starts threads (vfs, netfs, obs, faults, dbg, fast) via
#             scripts/sanitize.sh.
#   --fast  — static-only yanc-analyze, stop before the coverage sweep
#             and sanitizer rebuilds.
set -euo pipefail

cd "$(dirname "$0")/.."
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

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

# Perf gate: when two recorded baselines of the same variant exist
# (BENCH_<date>.json, or BENCH_<date>_<variant>.json), diff the two
# newest.  Cross-day baselines carry ambient machine drift well beyond
# the tolerance (EXPERIMENTS.md EXP-10 saw +31…+63% day-to-day swings on
# untouched code), so by default a regression here is REPORTED but does
# not fail the gate; set YANC_BENCH_STRICT=1 to make it fatal — correct
# when both files came from the same session (scripts/bench_diff.sh on
# an interleaved A/B pair is always strict when invoked directly).
echo "=== bench diff (recorded baselines) ==="
for variant in $(ls BENCH_*.json 2>/dev/null \
                   | sed -E 's/^BENCH_[0-9]+(_)?//; s/\.json$//; s/^$/@default/' \
                   | sort -u); do
  if [[ "$variant" != "@default" ]]; then
    files=(BENCH_*_"$variant".json)
  else
    variant=""
    files=($(ls BENCH_*.json 2>/dev/null | grep -E '^BENCH_[0-9]+\.json$' || true))
  fi
  if (( ${#files[@]} >= 2 )); then
    prev="${files[-2]}" latest="${files[-1]}"
    echo "--- ${variant:-default}: $prev -> $latest"
    if ! scripts/bench_diff.sh "$prev" "$latest"; then
      if [[ "${YANC_BENCH_STRICT:-0}" == 1 ]]; then
        echo "bench diff: regression beyond tolerance (YANC_BENCH_STRICT=1)"
        exit 1
      fi
      echo "bench diff: regression reported (advisory — cross-day baselines;"
      echo "            set YANC_BENCH_STRICT=1 to enforce)"
    fi
  else
    echo "--- ${variant:-default}: single baseline, nothing to diff"
  fi
done

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

if [[ "$FAST" == 1 ]]; then
  echo "check.sh --fast: OK (sanitizers skipped)"
  exit 0
fi

echo "=== asan+ubsan ==="
scripts/sanitize.sh asan

echo "=== stress sweeps (asan+ubsan) ==="
scripts/stress.sh

echo "=== tsan (concurrency suites + lockdep + SPSC ring / packet pool) ==="
scripts/sanitize.sh tsan build-tsan -R '(vfs|netfs|obs|faults|dbg|fast)_test'

echo "check.sh: all gates passed"
