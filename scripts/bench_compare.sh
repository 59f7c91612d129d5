#!/usr/bin/env bash
# A/B the end-to-end benchmark: a base revision against the working tree.
#
# Exports BASE_REV (`git archive`, so the repository gains no worktree
# or branch) into a scratch directory, then runs each tree's
# perfbench/run.py, which builds its own tree incrementally, on every
# BENCHMARK.json workload for ROUNDS pairs at BENCHMARK.json's
# run_seconds.  One short unmeasured run per side builds both trees
# first.  Each round then starts both sides at once, each pinned with
# taskset to its own half of the CPUs this script may use, and swaps
# the halves every round: the host's speed drifts by more than a few
# percent between runs, and concurrent pinned pairs see the same
# drift.  A round in which either run fails or reports an incorrect
# result is dropped whole, so the pairs compared are always runs of
# the same round.  Per workload and end-to-end metric it prints each
# side's median and quartiles, the change's median relative to the
# base's, and the pairs the change won.
#
# Exit status: 0 when every run is correct with no failed request and
# no change median is worse than the base median by more than the
# metric's BENCHMARK.json bound; 1 otherwise; 2 on a usage error or
# with fewer than 2 CPUs.  perfbench/ is read, never edited.
#
# Usage: scripts/bench_compare.sh BASE_REV [OUT.json]
#   ROUNDS        pairs per workload (default 10)
#   SEED          perfbench --seed (default: perfbench's own)
#   WORKLOADS     space-separated subset (default: every workload)
#   SCRATCH       directory for the base tree and both builds
#                 (default: a new directory under ${TMPDIR:-/tmp});
#                 an existing one is reused, so rebuilds are incremental
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '2,29p' "$0" >&2
    exit 2
fi
BASE_REV=$1
OUT=${2:-}
BASE_COMMIT=$(git rev-parse --verify "$BASE_REV^{commit}") || {
    echo "error: $BASE_REV is not a commit" >&2
    exit 2
}
# nproc counts the CPUs this process may run on, as taskset sees them.
if [ "$(nproc)" -lt 2 ]; then
    echo "error: concurrent pinned pairs need 2 CPUs, $(nproc) available" >&2
    exit 2
fi
SCRATCH=${SCRATCH:-$(mktemp -d "${TMPDIR:-/tmp}/gpump-bench-compare.XXXXXX")}
mkdir -p "$SCRATCH"
SCRATCH=$(cd "$SCRATCH" && pwd)

# The base tree, exported once per commit.
BASE_TREE=$SCRATCH/base
if [ "$(cat "$BASE_TREE/.commit" 2>/dev/null || true)" != "$BASE_COMMIT" ]; then
    rm -rf "$BASE_TREE"
    mkdir -p "$BASE_TREE"
    git archive "$BASE_COMMIT" | tar -x -C "$BASE_TREE"
    echo "$BASE_COMMIT" > "$BASE_TREE/.commit"
fi

exec python3 - "$ROOT" "$BASE_TREE" "$SCRATCH" "$BASE_REV" \
    "$BASE_COMMIT" "$OUT" << 'EOF'
import json
import os
import platform
import statistics
import subprocess
import sys
import time

root, base_tree, scratch, base_rev, base_commit, out = sys.argv[1:7]
cpus = sorted(os.sched_getaffinity(0))
# Each side's half of the CPUs in odd rounds; even rounds swap them.
half = len(cpus) // 2
halves = [",".join(map(str, cpus[:half])),
          ",".join(map(str, cpus[half:2 * half]))]
bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
rounds = int(os.environ.get("ROUNDS", "10"))
seconds = str(bench["run_seconds"])
seed = os.environ.get("SEED")
workloads = os.environ.get("WORKLOADS", "").split() or \
    [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]
sides = {"base": base_tree, "change": root}
# Each side's "host:" facts as its perfbench reports them: build type,
# compiler, git commit and run.py's digest of the sources measured.
host = {}


def start(side, workload, run_seconds, cpu_list=None):
    """Start one perfbench run of one side, pinned to the CPUs in
    cpu_list when given."""
    cmd = [sys.executable, os.path.join(sides[side], "perfbench", "run.py"),
           "--workload", workload, "--seconds", run_seconds]
    if seed is not None:
        cmd += ["--seed", seed]
    if cpu_list is not None:
        cmd = ["taskset", "-c", cpu_list] + cmd
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(scratch, "target-" + side))
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=sides[side])


def finish(side, p):
    """Wait for a run started by start(): its result object, or None."""
    stdout, stderr = p.communicate()
    lines = stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(stderr[-2000:])
        return None
    for line in lines:
        if line.startswith("host:"):
            host[side] = {k: v for k, v in (
                f.strip().split("=", 1) for f in line[5:].split(";")
                if "=" in f) if k != "loadavg_at_start"}
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "values": values}


# Build both trees before any measured run, so no build overlaps one.
for side in sides:
    if finish(side, start(side, workloads[0], "1")) is None:
        sys.exit(f"error: the {side} tree did not build or run")

ok = True
report = {}
for w in workloads:
    # One (base, change) result pair per kept round.
    pairs = []
    for r in range(rounds):
        t0 = time.monotonic()
        pinned = {"base": halves[r % 2], "change": halves[1 - r % 2]}
        procs = {side: start(side, w, seconds, pinned[side])
                 for side in sides}
        res = {side: finish(side, p) for side, p in procs.items()}
        bad = [side for side, got in res.items() if got is None or
               not got["correct"] or got["failed"] != 0]
        for side in bad:
            got = res[side]
            print(f"{w} round {r + 1}: {side} run failed or incorrect: "
                  f"{got and {k: got[k] for k in ('correct', 'failed')}}"
                  "; round dropped", file=sys.stderr)
        if bad:
            ok = False
            continue
        print(f"{w} round {r + 1}/{rounds} wall_s "
              + " ".join(f"{side} {res[side]['metrics']['wall_s']['value']:.3f}"
                         f" (CPUs {pinned[side]})" for side in sides)
              + f" ({time.monotonic() - t0:.0f} s)", file=sys.stderr,
              flush=True)
        pairs.append((res["base"], res["change"]))
    dropped = rounds - len(pairs)
    report[w] = {"pairs": len(pairs), "dropped_rounds": dropped}
    print(f"\n{w}: base {base_rev} ({base_commit[:10]}) vs change, "
          f"{len(pairs)} pairs at --seconds {seconds}"
          + (f", {dropped} rounds dropped" if dropped else ""))
    if not pairs:
        continue
    print(f"  {'metric':14s} {'base median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'ratio':>7s} {'wins':>6s}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [p[0]["metrics"][name]["value"] for p in pairs]
        c = [p[1]["metrics"][name]["value"] for p in pairs]
        sb, sc = summary(b), summary(c)
        wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
        ratio = sc["median"] / sb["median"] if sb["median"] else float("nan")
        worse = ratio - 1 if lower else 1 - ratio
        within = worse <= m["bound"]
        ok = ok and within
        report[w][name] = {"unit": m["unit"], "better": m["better"],
                           "bound": m["bound"], "base": sb, "change": sc,
                           "ratio": ratio, "change_wins": wins,
                           "within_bound": within}
        cols = [f"{x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}]"
                for x in (sb, sc)]
        print(f"  {name:14s} {cols[0]:>32s} {cols[1]:>32s} {ratio:7.3f} "
              f"{wins:3d}/{len(pairs)}"
              f"{'' if within else '  WORSE THAN BOUND'}")

if out:
    doc = {
        "system": f"{platform.system()} {platform.release()}",
        "base": {"rev": base_rev, "commit": base_commit,
                 "host": host.get("base", {})},
        "change": {"uncommitted_changes": bool(subprocess.run(
                       ["git", "-C", root, "status", "--porcelain", "--",
                        "src", "perfbench"],
                       capture_output=True, text=True).stdout.strip()),
                   "host": host.get("change", {})},
        "rounds": rounds, "seconds": float(seconds),
        "seed": seed if seed is not None else "perfbench default",
        "order": f"both sides run at once each round, each pinned with "
                 f"taskset to half of the CPUs: base on {halves[0]} and "
                 f"change on {halves[1]} in odd rounds, swapped in even "
                 f"rounds",
        "ok": ok,
        "workloads": report,
    }
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, allow_nan=False)
        f.write("\n")
    print(f"\nwrote {out}")
print("\nok" if ok else "\nFAILED: a failed or incorrect run, or a median "
      "worse than its bound")
sys.exit(0 if ok else 1)
EOF
