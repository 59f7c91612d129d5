#!/usr/bin/env python3
"""Build and run the gpump simulator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload prio_closed --seed 1 \
        --seconds 35 --trace 0

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, runs the perfbench binary and prints its
report; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Exits non-zero without printing a result
when the build or the run fails.  perfbench/README.md documents the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The run itself must end well inside 180 s; the first build may add more.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then build the benchmark binary (incremental)."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not any((bdir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return bdir / "perfbench"


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".hh", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "none"


def kill_group(pgid):
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def parse_result(line):
    """The result object, or None unless it is strict JSON with exactly
    the contract's keys."""
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    try:
        obj = json.loads(line, parse_constant=reject)
    except ValueError:
        return None
    if not isinstance(obj, dict) or set(obj) != RESULT_KEYS:
        return None
    return obj


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20140614)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        log("build failed")
        return 2
    out_dir = bdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ,
               PERFBENCH_GIT_COMMIT=git_commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", str(out_dir),
           "--golden-dir", str(BENCH / "golden")]
    # Own process group: a timeout kills the benchmark and its forked
    # exec workers together, and every one of them is waited for.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        kill_group(proc.pid)

    lines = stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(stdout)
        log(f"run failed (exit {proc.returncode}); no result")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
