#!/usr/bin/env python3
"""Builds the flor benchmark from source and runs one workload.

    python3 perfbench/run.py
        --workload <record_dense|replay_finetune|tenant_mix|all>
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (and the flor sources under src/) into the build directory
($CARGO_TARGET_DIR if set, else .bench_build) with CMake in Release mode;
later calls only rebuild what changed. Build output goes to stderr. The
florbench's stdout is passed through unchanged: its last line is the
JSON result. `--workload all` runs the three workloads one after another
with the same arguments. Exits non-zero, without a result line, when the
build or the workload set-up fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("record_dense", "replay_finetune", "tenant_mix")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "florbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or "--seed" not in args or \
            args.get("--workload") not in WORKLOADS + ("all",):
        print(__doc__, file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    work_dir = ".bench_run"
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(work_dir))
    workloads = WORKLOADS if args["--workload"] == "all" \
        else (args["--workload"],)
    status = 0
    for workload in workloads:
        cmd = [os.path.join(build_dir, "florbench"),
               "--workload", workload,
               "--seed", args["--seed"],
               "--seconds", args.get("--seconds", "10"),
               "--trace", args.get("--trace", "0"),
               "--work-dir", work_dir]
        done = subprocess.run(cmd, env=env, timeout=170)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
