#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build); build output
goes to stderr, so the last line of stdout is the binary's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h")):
        sys.exit("perfbench: no ONEX sources next to %s" % HERE)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "2"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as error:
        sys.exit("perfbench: build failed: %s" % error)
    work_dir = os.path.join(build_dir, "run-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--work-dir", work_dir],
            timeout=170)
    finally:
        # The span dump of a traced run is kept beside the build.
        spans = os.path.join(work_dir, "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(
                build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
