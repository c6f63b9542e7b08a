#!/usr/bin/env python3
r"""Build and run the host-measured benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload codec_scan --seed 1 --seconds 20 \
        --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build, then runs one workload. Build output goes to stderr, so the
last line of stdout is the result JSON. Exits non-zero when the build fails
(printing no result) or when a check fails (the result says correct: false).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("codec_scan", "ssb_serve", "ingest_mixed")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", "4"]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
