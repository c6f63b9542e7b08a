#!/usr/bin/env python3
"""Exact-count self-test of the benchmark.

    python3 perfbench/selftest.py --binary .bench_build/perfbench

On codec_scan and ssb_serve, two traced runs with one seed must print
byte-identical exact-window reports: the same op sequence and the same
modeled-time, traffic, launch, cache hit/miss/eviction and pushdown counts.
A different seed must change the op sequence. On ingest_mixed the counts
race the background re-encode, so only their spread is reported. Also
checks that the metric names printed match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PREFIX = "exact-window: "


def run(binary, workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    window = next((line[len(PREFIX):] for line in out
                   if line.startswith(PREFIX)), None)
    return window, json.loads(out[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_names = sorted(m["name"] for m in spec["end_to_end"])
    layer_names = sorted(m["name"] for m in spec["per_layer"])
    failures = []

    for workload in ("codec_scan", "ssb_serve"):
        a, result = run(args.binary, workload, 7, 1)
        b, _ = run(args.binary, workload, 7, 1)
        c, _ = run(args.binary, workload, 8, 1)
        if a is None or a != b:
            failures.append("%s: exact-window counts differ for one seed:\n"
                            "  %s\n  %s" % (workload, a, b))
        if json.loads(a)["ops"] == json.loads(c)["ops"]:
            failures.append("%s: seeds 7 and 8 ran the same op sequence"
                            % workload)
        if not result["correct"]:
            failures.append("%s: traced run reported correct=false" % workload)
        if sorted(result["metrics"]) != layer_names:
            failures.append("%s: traced metrics do not match BENCHMARK.json"
                            % workload)
        print("%s: exact window repeats: %s" % (workload, a == b))

    a, _ = run(args.binary, "ingest_mixed", 7, 1)
    b, _ = run(args.binary, "ingest_mixed", 7, 1)
    ca, cb = json.loads(a)["counters"], json.loads(b)["counters"]
    print("ingest_mixed: counts race the background re-encode; "
          "two runs of seed 7:")
    for name in sorted(ca):
        print("  %-16s %14.6g %14.6g" % (name, ca[name], cb[name]))
    if json.loads(a)["ops"] != json.loads(b)["ops"]:
        failures.append("ingest_mixed: one seed gave two op sequences")

    _, result = run(args.binary, "codec_scan", 7, 0)
    if sorted(result["metrics"]) != e2e_names:
        failures.append("untraced metrics do not match BENCHMARK.json")

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
