#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload study --seeds 1-10 [--seconds S]

Runs perfbench/run.py once per seed (--trace 0) and prints, for each
end-to-end metric in BENCHMARK.json, the median of the runs and the
distance between the first and third quartiles as a share of that
median, next to the metric's bound and a third of it, and the range
of per-run sample counts behind a_ms and b_ms. Exits 1 if a run fails
its oracle checks or a spread exceeds its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    counts = {"a": [], "b": []}
    ok = True
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=False).stdout.strip().splitlines()
        result = json.loads(out[-1]) if out else {}
        if not result.get("correct"):
            print("seed %d: run failed or incorrect" % seed)
            ok = False
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        # The workload's note line, e.g. "# query: a (point) n=175, ...".
        for line in out:
            for cls, n in re.findall(r"\b([ab]) \([^)]*\) n=(\d+)", line):
                counts[cls].append(int(n))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())))

    for m in bench["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if spread > m["bound"] / 3:
            flag = "  > bound/3"
        if spread > m["bound"]:
            flag = "  > BOUND"
            ok = False
        print("%-24s median %-12.5g spread %.4f (bound %.2f)%s" %
              (m["name"], med, spread, m["bound"], flag))
    for cls, n in counts.items():
        if n:
            print("%s_ms samples per run: %d-%d" % (cls, min(n), max(n)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
