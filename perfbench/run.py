#!/usr/bin/env python3
"""Builds the pipeline benchmark from the repository's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), optimised, and is reused by later runs.
The benchmark's standard output ends with one JSON result line; build
output goes to standard error. Exits non-zero, without a result, when the
build or the run fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("error: benchmark build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "simmr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: benchmark run timed out", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
