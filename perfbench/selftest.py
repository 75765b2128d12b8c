#!/usr/bin/env python3
"""Quick self-test of the benchmark (about two minutes).

    python3 perfbench/selftest.py

Runs every workload briefly over one recorded program plus the pinned
bench/corpus v2 artifacts, at --trace 0 and --trace 1, and checks that
each run passes its oracles and prints every metric BENCHMARK.json
names with the declared unit. Then it reruns each workload with
--inject-fault, which corrupts every expected result, and checks that
the failures show in `failed` (and in error_rate for a traced run), so
the oracle checks cannot be vacuous. Exits 0 when all checks hold.
"""

import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["study", "query", "served"]
PROGRAMS = ["gcc", "ctex", "spice", "qcd", "bps"]
RECORDED = "bps"


def run(workload, trace, *extra):
    corpus = sorted(glob.glob(os.path.join(ROOT, "bench", "corpus",
                                           "*.v2.trc")))
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace",
           str(trace), "--programs", RECORDED,
           "--corpus", ",".join(corpus)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # Per-program rows exist only for the program the self-test records.
    declared = {
        0: bench["end_to_end"],
        1: [m for m in bench["per_layer"]
            if m["name"].rsplit(".", 1)[-1] not in PROGRAMS
            or m["name"].endswith("." + RECORDED)],
    }
    problems = []

    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, result = run(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            if rc != 0 or result is None:
                problems.append("%s: exit %d, no result" % (tag, rc))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: oracle failures (%d of %d)" %
                                (tag, result["failed"], result["attempted"]))
            metrics = result["metrics"]
            for m in declared[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: missing %s" % (tag, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s has unit %s, declared %s" %
                                    (tag, m["name"], got["unit"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in declared[trace]}
            if extra:
                problems.append("%s: undeclared %s" % (tag, sorted(extra)))
            print("%s: %d metrics, %d ops checked" %
                  (tag, len(metrics), result["attempted"]))

        rc, result = run(workload, 0, "--inject-fault")
        if result is None or result["correct"] or result["failed"] == 0:
            problems.append("%s: a wrong expected result went unnoticed" %
                            workload)
        else:
            print("%s --inject-fault: %d of %d ops failed, as they must" %
                  (workload, result["failed"], result["attempted"]))

    rc, result = run("query", 1, "--inject-fault")
    if result is None or result["metrics"]["error_rate"]["value"] <= 0:
        problems.append("traced --inject-fault: error_rate stayed 0")

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
