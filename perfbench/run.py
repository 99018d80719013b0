#!/usr/bin/env python3
r"""Build the campaign benchmark and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload fleet_replicas --seed 1 \
        --seconds 30 --trace 0

The repository's libraries and the benchmark build into build-perfbench/ with
the default configuration (RelWithDebInfo, DYNCDN_OBS=ON,
DYNCDN_MEM_TRACK=ON). Its last line of output is the result JSON.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, "build-perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run is expected to end within 180 s, build check included.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(cmd)} (log: {log_path})")
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(f"failed: {' '.join(cmd)} (log: {log_path})")


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/; run from a full "
                 "checkout of the repository")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DDYNCDN_OBS=ON",
                    "-DDYNCDN_MEM_TRACK=ON", "-DDYNCDN_SANITIZE=",
                    "-DDYNCDN_TCP_GATHER_COPY=OFF"],
                   os.path.join(BUILD_DIR, "configure.log"), BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", jobs],
               os.path.join(BUILD_DIR, "build.log"), BUILD_TIMEOUT_S)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()

    # DYNCDN_* variables change thread counts, grains, shards and capture
    # budgets; the workloads pin their own. Temporary spill directories
    # stay inside the build tree.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DYNCDN_")}
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
