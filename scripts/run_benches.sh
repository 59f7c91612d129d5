#!/usr/bin/env bash
# Run every figure/table bench binary and collect the outputs under
# results/ (one .txt per bench). Bench programs are long; this is a
# manual tool, not part of the tier-1 gate.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT_DIR=${OUT_DIR:-results}

if [ ! -d "$BUILD_DIR/bench" ]; then
    echo "error: $BUILD_DIR/bench not found — build first (scripts/check.sh)" >&2
    exit 1
fi

JOBS=${JOBS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)}

# Each bench gets a scratch result cache under one temp root: a bench
# that dies mid-sweep (OOM kill, Ctrl-C) can be rerun by hand against
# the same directory to resume.  Strict mode makes unconsumed/stale
# entries — fingerprints that match no request, i.e. the cache and the
# sweep disagree — a loud failure instead of silent recomputation.
CACHE_ROOT=$(mktemp -d "${TMPDIR:-/tmp}/gpump-bench-cache.XXXXXX")
trap 'rm -rf "$CACHE_ROOT"' EXIT
export GPUMP_EXEC_CACHE_STRICT=1

mkdir -p "$OUT_DIR"
status=0
ran=0
for bin in "$BUILD_DIR"/bench/bench_*; do
    [ -x "$bin" ] || continue
    ran=$((ran + 1))
    name=$(basename "$bin")
    # The figure benches run their batches on $JOBS forked workers
    # with a resumable result cache (output is byte-identical for any
    # job count).  The table benches simulate nothing and take no
    # batch flags, and micro_simcore is Google Benchmark; both reject
    # foreign flags.
    jobs_flag="--jobs=$JOBS --cache-dir=$CACHE_ROOT/$name"
    extra_flags=""
    case "$name" in
        *micro*|*table*) jobs_flag="" ;;
        # The serving sweep also lands its per-run records (per-class
        # p99/miss/goodput vs load) as JSONL for replotting.
        *serve*) extra_flags="--jsonl=$OUT_DIR/$name.jsonl" ;;
    esac
    echo "== $name"
    if "$bin" $jobs_flag $extra_flags "$@" > "$OUT_DIR/$name.txt" 2>&1; then
        echo "   -> $OUT_DIR/$name.txt"
    else
        echo "   FAILED (see $OUT_DIR/$name.txt)" >&2
        status=1
    fi
done
if [ "$ran" -eq 0 ]; then
    echo "error: no bench binaries in $BUILD_DIR/bench — build first" >&2
    exit 1
fi
exit $status
