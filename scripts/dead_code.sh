#!/usr/bin/env bash
# Dead-code gate: every out-of-line function of libgpump.a must be
# linked into a shipped binary, or be named in
# scripts/dead_code_allow.txt with the reason it stays.
#
# It builds the tree (tests off) and perfbench/ (through
# `cmake -S perfbench`) at -O0 with -ffunction-sections
# -fdata-sections, linked with -Wl,--gc-sections: no call is inlined
# away, and the linker drops every function that no path from a
# main() reaches.  The consumers are one bench_<name> per
# bench/*.cpp, one example_<name> per examples/*.cpp, and perfbench.
# A consumer that did not build is an error, not a shorter list
# (bench_micro_simcore needs Google Benchmark).  A global function
# (nm `T`) of libgpump.a counts as linked when some consumer defines
# it under the same demangled name.
#
# What the scan cannot see:
#   - header-only code: inline functions and templates are emitted
#     weak (nm `W`) wherever they are used, so an unused one leaves
#     nothing behind to scan;
#   - static and anonymous-namespace functions (nm `t`);
#   - a virtual override nothing calls whose vtable is linked: the
#     vtable keeps it, so it counts as linked.
#
# Allow-list lines read "SYMBOL | REASON", SYMBOL as `nm -C` prints
# it; '#' starts a comment line.  An entry whose function is linked
# or no longer defined fails the gate too, so the list holds only
# functions that are still dead.
#
# Exit status: 0 when clean; 1 on an unlisted dead function or a bad
# allow-list entry; 2 when a consumer did not build.
set -euo pipefail

cd "$(dirname "$0")/.."
# sort, comm and grep must agree on one collation.
export LC_ALL=C

BUILD_DIR=${DEAD_CODE_BUILD_DIR:-build-deadcode}
JOBS=${JOBS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)}
ALLOW=scripts/dead_code_allow.txt

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
cmake -B "$BUILD_DIR" -S . -DGPUMP_BUILD_TESTS=OFF "${flags[@]}" > /dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" > /dev/null
cmake -B "$BUILD_DIR/perfbench" -S perfbench "${flags[@]}" > /dev/null
cmake --build "$BUILD_DIR/perfbench" -j "$JOBS" --target perfbench > /dev/null

consumers=()
for src in bench/*.cpp; do
    consumers+=("$BUILD_DIR/bench/bench_$(basename "$src" .cpp)")
done
for src in examples/*.cpp; do
    consumers+=("$BUILD_DIR/examples/example_$(basename "$src" .cpp)")
done
consumers+=("$BUILD_DIR/perfbench/perfbench")

status=0
for bin in "${consumers[@]}"; do
    if ! [ -x "$bin" ]; then
        echo "dead_code.sh: consumer $bin was not built" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] || exit 2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The demangled functions that the files $2... define with an nm type
# matching the pattern $1.
functions() {
    local kinds=$1
    shift
    nm -C --defined-only "$@" | sed -n "s/^[0-9a-f]* $kinds //p"
}
functions T "$BUILD_DIR/src/libgpump.a" | sort -u > "$tmp/defined"
for bin in "${consumers[@]}"; do
    functions '[TtWw]' "$bin"
done | sort -u > "$tmp/linked"
comm -23 "$tmp/defined" "$tmp/linked" > "$tmp/dead"

: > "$tmp/allowed"
lineno=0
while IFS= read -r line || [ -n "$line" ]; do
    lineno=$((lineno + 1))
    case "$line" in '' | '#'*) continue ;; esac
    sym=${line%% | *}
    reason=${line#* | }
    if [ "$sym" = "$line" ] || [ -z "$sym" ] || [ -z "${reason// /}" ]; then
        echo "$ALLOW:$lineno: expected 'SYMBOL | REASON'" >&2
        status=1
    elif ! grep -qxF -- "$sym" "$tmp/defined"; then
        echo "$ALLOW:$lineno: $sym is not defined in libgpump.a" >&2
        status=1
    elif ! grep -qxF -- "$sym" "$tmp/dead"; then
        echo "$ALLOW:$lineno: $sym is linked; drop the entry" >&2
        status=1
    else
        echo "$sym" >> "$tmp/allowed"
    fi
done < "$ALLOW"

sort -u -o "$tmp/allowed" "$tmp/allowed"
comm -23 "$tmp/dead" "$tmp/allowed" > "$tmp/unlisted"
if [ -s "$tmp/unlisted" ]; then
    echo "dead_code.sh: $(wc -l < "$tmp/unlisted") function(s) of" \
        "libgpump.a are linked into no shipped binary:" >&2
    sed 's/^/  /' "$tmp/unlisted" >&2
    status=1
fi
echo "dead_code.sh: $(wc -l < "$tmp/defined") functions," \
    "${#consumers[@]} consumers, $(wc -l < "$tmp/allowed") allowed," \
    "$(wc -l < "$tmp/unlisted") unlisted dead" >&2
exit $status
