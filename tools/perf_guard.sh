#!/usr/bin/env bash
# Perf-regression guard for the three committed benchmark trajectories.
#
# Reruns the kernel micro-benchmark (`kernel_bench`, wall-clock speedup of
# the batched QK kernel over the reference DPU), the tile
# scaling ablation (`tile_scaling`, virtual-cycle makespan speedup at 8
# tiles), the layer-placement ablation (`layer_placement`, LPT-vs-
# round-robin makespan speedup on a ragged 12-head layer at 4 tiles), and
# the fault-recovery ablation (`fault_recovery`, goodput recovery of
# retries + graceful degradation over shed-only under the checked-in
# fault plan), then fails if any speedup lands below 85% of the value
# committed in BENCH_qk_kernel.json / BENCH_tiles.json /
# BENCH_layer_sched.json / BENCH_fault_recovery.json. On success the new
# points are appended to BENCH_trajectory.jsonl so the trajectory
# accumulates run over run instead of living only in git history.
#
# The committed baselines are read BEFORE the examples run, because both
# examples rewrite their BENCH file in place.
#
# Usage: bash tools/perf_guard.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# Float parsing and the awk threshold comparison must be locale-independent:
# under a decimal-comma locale awk would read "7.296" as 7 and the 85% floor
# check could silently pass (or fail) on the truncated value.
export LC_ALL=C

# A guard without a baseline is a no-op that looks green — refuse to run.
for baseline in BENCH_qk_kernel.json BENCH_tiles.json BENCH_layer_sched.json BENCH_fault_recovery.json; do
  if [ ! -f "$baseline" ]; then
    echo "perf_guard: missing committed baseline '$baseline'." >&2
    echo "perf_guard: regenerate and commit it first — kernel_bench writes BENCH_qk_kernel.json," >&2
    echo "perf_guard: tile_scaling writes BENCH_tiles.json, layer_placement writes" >&2
    echo "perf_guard: BENCH_layer_sched.json, fault_recovery writes BENCH_fault_recovery.json" >&2
    echo "perf_guard: (cargo run --release --example <name>)" >&2
    exit 1
  fi
done

# Last "speedup" value in a BENCH json (the largest design point).
speedup_of() {
  grep -o '"speedup": *[0-9.]*' "$1" | tail -n 1 | sed 's/[^0-9.]*//g'
}

base_kernel=$(speedup_of BENCH_qk_kernel.json)
base_tiles=$(speedup_of BENCH_tiles.json)
base_layer=$(speedup_of BENCH_layer_sched.json)
base_fault=$(speedup_of BENCH_fault_recovery.json)
if [ -z "$base_kernel" ] || [ -z "$base_tiles" ] || [ -z "$base_layer" ] || [ -z "$base_fault" ]; then
  echo "perf_guard: baseline file present but contains no \"speedup\" entry — corrupt baseline?" >&2
  exit 1
fi
echo "committed baselines: kernel ${base_kernel}x, 8-tile makespan ${base_tiles}x, lpt-vs-rr ${base_layer}x, fault recovery ${base_fault}x"

cargo run --release --example kernel_bench
cargo run --release --example tile_scaling
cargo run --release --example layer_placement
cargo run --release --example fault_recovery

new_kernel=$(speedup_of BENCH_qk_kernel.json)
new_tiles=$(speedup_of BENCH_tiles.json)
new_layer=$(speedup_of BENCH_layer_sched.json)
new_fault=$(speedup_of BENCH_fault_recovery.json)

# check NAME BASE NEW — fails when NEW < 0.85 * BASE.
check() {
  awk -v name="$1" -v base="$2" -v fresh="$3" 'BEGIN {
    floor = 0.85 * base
    if (fresh < floor) {
      printf "PERF REGRESSION: %s speedup %.3f fell below 85%% of committed %.3f (floor %.3f)\n",
        name, fresh, base, floor
      exit 1
    }
    printf "%s speedup %.3f vs committed %.3f (floor %.3f) — ok\n", name, fresh, base, floor
  }'
}

# Run every check (|| failed=1 keeps set -e from aborting on the first
# regression, so all four verdicts are reported), then refuse to record a
# trajectory point if any failed — a regression must never be appended as
# if it were a healthy sample.
failed=0
check "kernel_bench" "$base_kernel" "$new_kernel" || failed=1
check "tile_scaling (8 tiles)" "$base_tiles" "$new_tiles" || failed=1
check "layer_placement (lpt vs rr)" "$base_layer" "$new_layer" || failed=1
check "fault_recovery (resilient vs shed-only goodput)" "$base_fault" "$new_fault" || failed=1

if [ "$failed" -ne 0 ]; then
  echo "perf_guard: guard FAILED — refusing to append to BENCH_trajectory.jsonl" >&2
  exit 1
fi

recorded=$(date -u +%Y-%m-%dT%H:%M:%SZ)
{
  printf '{"bench": "kernel_bench", "speedup": %s, "baseline": %s, "recorded": "%s"}\n' \
    "$new_kernel" "$base_kernel" "$recorded"
  printf '{"bench": "tile_scaling_8", "speedup": %s, "baseline": %s, "recorded": "%s"}\n' \
    "$new_tiles" "$base_tiles" "$recorded"
  printf '{"bench": "layer_sched_lpt_vs_rr", "speedup": %s, "baseline": %s, "recorded": "%s"}\n' \
    "$new_layer" "$base_layer" "$recorded"
  printf '{"bench": "fault_recovery_goodput", "speedup": %s, "baseline": %s, "recorded": "%s"}\n' \
    "$new_fault" "$base_fault" "$recorded"
} >> BENCH_trajectory.jsonl
echo "appended 4 points to BENCH_trajectory.jsonl"
