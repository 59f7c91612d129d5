#!/usr/bin/env bash
# Benchmark the simulator core and record the numbers.
#
# Builds the Release configuration (the perf numbers are meaningless
# under Debug/sanitizers), runs the Google-Benchmark micro suite's
# event-core, workload-layer and end-to-end cases, and writes the JSON
# results to BENCH_simcore.json at the repo root so the perf
# trajectory is tracked in-tree from PR to PR.  Compare against the
# committed baseline before and after touching sim/, gpu/, core/ or
# workload/ hot paths.
#
# The emitted file is validated as *strict* JSON (python's default
# json module accepts NaN/Infinity; we reject them) so a non-finite
# number can never land in the committed baseline unnoticed.
#
# Usage: scripts/bench_simcore.sh [output.json]
#   BUILD_DIR  build directory (default: build-bench, Release)
#   FILTER     benchmark_filter regex (default: the simcore set)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
OUT=${1:-BENCH_simcore.json}
FILTER=${FILTER:-'BM_EventQueueScheduleRun|BM_TimerRearm|BM_RngLognormal|BM_IsolatedRun|BM_MultiprogrammedDssRun|BM_ProcessReplay|BM_WorkloadIssueLoop|BM_PredictorUpdate|BM_ContendedSwitch|BM_RunnerBatch|BM_LargeGpu'}
JOBS=${JOBS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DGPUMP_BUILD_TESTS=OFF -DGPUMP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_micro_simcore \
    2>/dev/null || {
    echo "error: bench_micro_simcore did not build — is Google" \
        "Benchmark (libbenchmark-dev) installed?" >&2
    exit 1
}

# The workload-layer and completion-cycle benchmarks must exist in
# the binary: a silently missing BM_ProcessReplay (renamed, gated out,
# filtered away) would leave the committed baseline stale without
# anyone noticing.  A benchmark with arguments lists as NAME/ARG.
for bench in BM_ProcessReplay BM_WorkloadIssueLoop \
    BM_MultiprogrammedDssRun BM_ContendedSwitch \
    BM_PredictorUpdate BM_TimerRearm BM_RunnerBatch \
    BM_LargeGpu; do
    "$BUILD_DIR/bench/bench_micro_simcore" --benchmark_list_tests \
        | grep -qE "^$bench(/|\$)" || {
        echo "error: $bench missing from the gbench listing" >&2
        exit 1
    }
done

# Record what the numbers were measured on next to gbench's own
# context (host name, CPU count and caches).
CPU_MODEL=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null \
    | head -1 | tr -d ',' || true)
"$BUILD_DIR/bench/bench_micro_simcore" \
    --benchmark_context="gpump_build_type=Release,cpu_model=${CPU_MODEL:-unknown}" \
    --benchmark_filter="$FILTER" \
    --benchmark_repetitions="${REPS:-3}" \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$OUT"

# Validate strict JSON (catches the bare-nan class of bug forever),
# then print a human-readable digest next to the raw file.
python3 - "$OUT" << 'EOF'
import json, sys

def reject_nonfinite(tok):
    raise ValueError(f"non-strict JSON constant {tok!r} in output")

text = open(sys.argv[1]).read()
data = json.loads(text, parse_constant=reject_nonfinite)
print(f"{sys.argv[1]}: strict JSON ok ({len(text)} bytes)")

ctx = data.get("context", {})
print(f"host: {ctx.get('host_name', '?')}  "
      f"cpu: {ctx.get('cpu_model', '?')} x{ctx.get('num_cpus', '?')}  "
      f"build: {ctx.get('gpump_build_type', '?')}  date: {ctx.get('date', '?')}")
for b in data.get("benchmarks", []):
    if not b["name"].endswith("_median"):
        continue
    name = b["name"].removesuffix("_median")
    ips = b.get("items_per_second")
    rate = f"{ips / 1e6:8.2f}M items/s" if ips else f"{b['real_time']:10.0f} {b['time_unit']}"
    print(f"  {name:40s} {rate}")
EOF
echo "wrote $OUT"
