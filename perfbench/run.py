#!/usr/bin/env python3
"""Build and run the layered system benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload study|query|served --seed N \
        --seconds S --trace 0|1 [--programs a,b] [--corpus f1,f2]
        [--inject-fault]

The first call configures and builds perfbench/ (which compiles the
library from src/) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build.
Build output goes to stderr. The benchmark's scratch traces live in
.bench_work/ and are removed after the run; span files and run
reports are kept in .bench_out/. The last stdout line is the result
object the benchmark prints.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; False on failure."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, cwd=ROOT)
        if rc != 0:
            return False
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "--target", "edb_perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=log, stderr=log, cwd=ROOT)
    return rc == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["study", "query", "served"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--programs")
    ap.add_argument("--corpus")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "edb_perfbench")

    work = os.path.join(".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--out", ".bench_out"]
    if args.programs:
        cmd += ["--programs", args.programs]
    if args.corpus:
        cmd += ["--corpus", args.corpus]
    if args.inject_fault:
        cmd.append("--inject-fault")

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
