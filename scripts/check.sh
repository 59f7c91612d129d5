#!/usr/bin/env bash
# Tier-1 verify: configure, build everything, run the labelled suite.
# Used locally and by .github/workflows/ci.yml — keep them in sync.
#
# Modes (mutually exclusive, must be the first argument):
#   (none)    build + ctest; extra arguments are forwarded to ctest
#   --lint    run the determinism lint over src/ (scripts/lint_determinism.py)
#   --tidy    run the clang-tidy gate (scripts/tidy.sh)
#   --golden  build, then run every bench (--quick --jobs=$JOBS; the
#             table benches take no flags) and every example, and cmp
#             each stdout with tests/golden/<binary>.txt (DESIGN.md §3)
set -euo pipefail

cd "$(dirname "$0")/.."

case "${1:-}" in
--lint)
    exec python3 scripts/lint_determinism.py
    ;;
--tidy)
    exec scripts/tidy.sh
    ;;
esac

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)}

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"

if [ "${1:-}" != "--golden" ]; then
    exec ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" "$@"
fi

# Every golden needs its binary, and every bench and example binary
# (bar the Google Benchmark one) needs a golden.
status=0
for bin in "$BUILD_DIR"/bench/bench_* "$BUILD_DIR"/examples/example_*; do
    name=$(basename "$bin")
    case "$name" in *micro*) continue ;; esac
    [ -f "tests/golden/$name.txt" ] || {
        echo "MISSING tests/golden/$name.txt" >&2
        status=1
    }
done
for golden in tests/golden/*.txt; do
    name=$(basename "$golden" .txt)
    case "$name" in
    bench_table*) bin=$BUILD_DIR/bench/$name flags=() ;;
    bench_*) bin=$BUILD_DIR/bench/$name flags=(--quick "--jobs=$JOBS") ;;
    *) bin=$BUILD_DIR/examples/$name flags=() ;;
    esac
    if ! [ -x "$bin" ]; then
        echo "MISSING $bin" >&2
        status=1
    elif "$bin" ${flags[@]+"${flags[@]}"} 2> /dev/null | cmp - "$golden"; then
        echo "ok      $name"
    else
        echo "DIFFERS $name (rerun: $bin ${flags[*]})" >&2
        status=1
    fi
done
exit $status
