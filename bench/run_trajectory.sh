#!/usr/bin/env bash
# run_trajectory.sh: build one perf-trajectory point (BENCH_<N>.json at the
# repo root) from the config sweep plus the stream-overlap and prefetch
# benches.
#
# The committed BENCH_<N>.json files form the perf trajectory: one
# schema-versioned snapshot per PR that moves a gated number. trajectory_diff
# joins two points by cell key and fails on any out-of-band regression, so
# PR N+1 cannot silently lose PR N's win:
#   build/trajectory_diff --baseline BENCH_9.json --candidate NEW.json
#
# Usage:
#   bench/run_trajectory.sh [--build BUILDDIR] [--out FILE] [--point N]
#                           [--tier small|full] [--repeats R]
#                           [--trace-out DIR] [--update-baseline]
#       run bench_sweep (which exits nonzero when one of its pipeline/grid
#       checks fails) and the two single-shot benches with --json, and merge
#       the three sections into FILE (default: BENCH_<N>.json at the repo
#       root, schema_version 1); --trace-out forwards to bench_sweep so every
#       sweep cell also leaves a deterministic per-cell trace for trace_diff
#       attribution.
#       --update-baseline refreshes the committed point: it sweeps the small
#       tier, the one the CI perf-gate diffs against it, then diffs the
#       fresh point against itself as a self-check. Commit the result when a
#       PR legitimately moves a gated number.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
point=9
out=""
tier="small"
repeats=3
trace_out=""
update_baseline=0

while [ $# -gt 0 ]; do
  case "$1" in
    --build)     build_dir="$2"; shift 2 ;;
    --out)       out="$2"; shift 2 ;;
    --point)     point="$2"; shift 2 ;;
    --tier)      tier="$2"; shift 2 ;;
    --repeats)   repeats="$2"; shift 2 ;;
    --trace-out) trace_out="$2"; shift 2 ;;
    --update-baseline) update_baseline=1; shift ;;
    *) echo "unknown arg: $1" >&2; exit 2 ;;
  esac
done
[ -n "$out" ] || out="$repo_root/BENCH_$point.json"
if [ "$update_baseline" -eq 1 ] && [ "$tier" != "small" ]; then
  echo "--update-baseline sweeps the small tier the perf gate diffs; drop --tier $tier" >&2
  exit 2
fi

diff_tool="$build_dir/trajectory_diff"
work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT

for b in stream_overlap prefetch_lookahead; do
  bin="$build_dir/bench_$b"
  [ -x "$bin" ] || { echo "missing $bin (build the benches first)" >&2; exit 1; }
  echo "== bench_$b"
  "$bin" --json "$work_dir/$b.json" > "$work_dir/$b.txt"
done
bin="$build_dir/bench_sweep"
[ -x "$bin" ] || { echo "missing $bin (build the benches first)" >&2; exit 1; }
echo "== bench_sweep ($tier tier, $repeats repeats)"
sweep_extra=()
[ -n "$trace_out" ] && sweep_extra+=(--trace-out "$trace_out")
if ! "$bin" --tier "$tier" --repeats "$repeats" --point "$point" \
       "${sweep_extra[@]}" --json "$work_dir/sweep.json" > "$work_dir/sweep.txt"; then
  sed -n '/^sweep checks/,$p' "$work_dir/sweep.txt" >&2
  echo "bench_sweep failed; $out left untouched" >&2
  exit 1
fi

# Merge: one top-level key per section, bodies embedded verbatim (each bench
# emits a self-contained JSON object), indented one level for readability.
# Write to a temp file and move into place so a mid-merge failure can never
# leave a truncated $out behind.
{
  printf '{\n'
  printf '  "trajectory_point": %d,\n' "$point"
  printf '  "schema_version": 1'
  for b in stream_overlap prefetch_lookahead sweep; do
    # $(...) strips the file's trailing newline, so the comma lands cleanly.
    body="$(sed '2,$s/^/  /' "$work_dir/$b.json")"
    printf ',\n  "%s": %s' "$b" "$body"
  done
  printf '\n}\n'
} > "$out.tmp"

# Validate the merged point structurally before moving it into place.
if [ -x "$diff_tool" ]; then
  "$diff_tool" --schema-check trajectory "$out.tmp"
else
  echo "warning: $diff_tool not built; skipping schema check" >&2
fi
mv "$out.tmp" "$out"
echo "wrote $out"

# Baseline refresh self-check: the fresh point must diff clean against
# itself (catches a point that fails its own join/classify pass).
if [ "$update_baseline" -eq 1 ] && [ -x "$diff_tool" ]; then
  "$diff_tool" --baseline "$out" --candidate "$out" --quiet
  echo "baseline $out self-diff OK"
fi
