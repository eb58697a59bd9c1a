#!/usr/bin/env bash
# Interleaved A/B of the end-to-end benchmark (yancbench) between two
# revisions, each built from its own fresh checkout.
#
# Usage: scripts/bench_ab.sh [options] <base> [<head>]
#
#   <base>, <head>   any git tree-ish (commit, branch, tag, tree id).
#                    Without <head> the working tree is measured: tracked
#                    and untracked files that .gitignore does not exclude,
#                    snapshotted through a temporary index (the real index
#                    and every ref are left alone).
#   --pairs N        interleaved pairs per workload (default 10)
#   --seed-base S    pair i runs seed S+i on both sides (default 9001);
#                    pick seeds the change was not tuned on
#   --dir D          parent of the two checkouts and the results
#                    (default: a fresh directory under ${TMPDIR:-/tmp})
#
# Both revisions are `git archive`d into sibling directories, <D>/base and
# <D>/head, so neither runs from the working tree: where a checkout lives
# once moved reactive_l2 by ~3.5% with no code change.  Each side is built
# once (yancbench/run.py builds under its own .bench_build/), then, for
# every workload in BENCHMARK.json, every pair runs `run.py --workload W
# --seed S --seconds <run_seconds> --trace 0` on both sides, alternating
# which side goes first; run_seconds is BENCHMARK.json's.  Results land in
# <D>/results/<workload>-<side>-<seed>.json.
#
# For every workload and every end-to-end metric in BENCHMARK.json it
# prints each side's median and quartiles, the change of the medians, the
# pairs the head won, and whether the head's median is worse than the
# base's by more than the metric's bound.
#
# Exit status: 1 when a run fails or reports `correct` false or `failed`
# > 0; 2 when a bound is crossed; 0 otherwise.
set -euo pipefail

PAIRS=10
SEED_BASE=9001
DIR=""
REVS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) PAIRS="$2"; shift 2 ;;
    --seed-base) SEED_BASE="$2"; shift 2 ;;
    --dir) DIR="$2"; shift 2 ;;
    -h|--help) sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; exit 0 ;;
    -*) echo "bench_ab.sh: unknown option $1" >&2; exit 64 ;;
    *) REVS+=("$1"); shift ;;
  esac
done
if [[ ${#REVS[@]} -lt 1 || ${#REVS[@]} -gt 2 ]]; then
  echo "usage: scripts/bench_ab.sh [options] <base> [<head>]" >&2
  exit 64
fi

REPO="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO"

BASE_REV="$(git rev-parse --verify "${REVS[0]}^{tree}")"
if [[ ${#REVS[@]} -eq 2 ]]; then
  HEAD_REV="$(git rev-parse --verify "${REVS[1]}^{tree}")"
  HEAD_LABEL="${REVS[1]}"
else
  index="$(mktemp)"
  trap 'rm -f "$index"' EXIT
  GIT_INDEX_FILE="$index" git read-tree HEAD
  GIT_INDEX_FILE="$index" git add -A
  HEAD_REV="$(GIT_INDEX_FILE="$index" git write-tree)"
  HEAD_LABEL="working tree"
fi

if [[ -z "$DIR" ]]; then
  DIR="$(mktemp -d "${TMPDIR:-/tmp}/yanc-bench-ab.XXXXXX")"
fi
mkdir -p "$DIR/results"
for side in base head; do
  if [[ -e "$DIR/$side" ]]; then
    echo "bench_ab.sh: $DIR/$side exists; give a fresh --dir" >&2
    exit 64
  fi
done

echo "base: ${REVS[0]} (tree $BASE_REV)"
echo "head: $HEAD_LABEL (tree $HEAD_REV)"
echo "dir:  $DIR"

mkdir "$DIR/base" "$DIR/head"
git archive "$BASE_REV" | tar -x -C "$DIR/base"
git archive "$HEAD_REV" | tar -x -C "$DIR/head"

# The run length and the workloads are the benchmark's own.
SECONDS_PER_RUN="$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$REPO/BENCHMARK.json")"
read -r -a WORKLOAD_LIST <<< "$(python3 -c 'import json,sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$REPO/BENCHMARK.json")"

# One smoke run per side builds its tree; later runs only check it.
for side in base head; do
  echo "== building $side"
  if ! (cd "$DIR/$side" && python3 yancbench/run.py \
          --workload "${WORKLOAD_LIST[0]}" --seed 1 --seconds 1 --trace 0 \
          --smoke > /dev/null 2> "$DIR/results/build-$side.log"); then
    echo "bench_ab.sh: $side failed to build; see $DIR/results/build-$side.log" >&2
    exit 1
  fi
done

run_one() {  # side workload seed
  local out="$DIR/results/$2-$1-$3.json"
  if (cd "$DIR/$1" && python3 yancbench/run.py --workload "$2" --seed "$3" \
        --seconds "$SECONDS_PER_RUN" --trace 0 > "$out.raw" \
        2> "$DIR/results/$2-$1-$3.log"); then
    tail -n 1 "$out.raw" > "$out"
  else
    : > "$out"
  fi
  rm -f "$out.raw"
}

for workload in "${WORKLOAD_LIST[@]}"; do
  for ((i = 0; i < PAIRS; i++)); do
    seed=$((SEED_BASE + i))
    if ((i % 2 == 0)); then order=(base head); else order=(head base); fi
    echo "== $workload pair $((i + 1))/$PAIRS seed $seed (${order[0]} first)"
    for side in "${order[@]}"; do run_one "$side" "$workload" "$seed"; done
  done
done

python3 - "$REPO/BENCHMARK.json" "$DIR/results" "$SEED_BASE" "$PAIRS" \
    "${WORKLOAD_LIST[@]}" <<'EOF'
import json
import os
import statistics
import sys

bench_path, results, seed_base, pairs = sys.argv[1:5]
workloads = sys.argv[5:]
seed_base, pairs = int(seed_base), int(pairs)
metrics = json.load(open(bench_path))["end_to_end"]


def load(workload, side, seed):
    path = os.path.join(results, f"{workload}-{side}-{seed}.json")
    try:
        with open(path) as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None


def fmt(value):
    return f"{value:.0f}" if abs(value) >= 100 else f"{value:.4g}"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


status = 0
for workload in workloads:
    runs = {side: [load(workload, side, seed_base + i) for i in range(pairs)]
            for side in ("base", "head")}
    bad = [(side, seed_base + i) for side, rs in runs.items()
           for i, r in enumerate(rs)
           if r is None or not r.get("correct") or r.get("failed", 1) != 0]
    print(f"\n{workload}: {pairs} pairs, seeds {seed_base}..{seed_base + pairs - 1}")
    if bad:
        status = 1
        for side, seed in bad:
            print(f"  FAILED: {side} seed {seed} (no result, not correct, "
                  "or failed > 0)")
    print(f"  {'metric':<18} {'base median [q1, q3]':>26} "
          f"{'head median [q1, q3]':>26} {'change':>8} {'won':>6}  bound")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pair_values = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                       for b, h in zip(runs["base"], runs["head"])
                       if b and h and name in b.get("metrics", {})
                       and name in h.get("metrics", {})]
        if not pair_values:
            print(f"  {name:<18} no paired values")
            continue
        base = [b for b, _ in pair_values]
        head = [h for _, h in pair_values]
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        change = (hmed - bmed) / bmed if bmed else 0.0
        won = sum(1 for b, h in pair_values if (h > b if higher else h < b))
        worse = -change if higher else change
        crossed = worse > m["bound"]
        if crossed:
            status = max(status, 2)
        base_col = f"{fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}]"
        head_col = f"{fmt(hmed)} [{fmt(hq1)}, {fmt(hq3)}]"
        print(f"  {name:<18} {base_col:>26} {head_col:>26}"
              f" {change * 100:>+7.1f}% {won:>3}/{len(pair_values):<3}"
              f" {'CROSSED' if crossed else 'ok'} (±{m['bound'] * 100:.0f}%)")
sys.exit(status)
EOF
