#!/usr/bin/env python3
"""wgrap's benchmark entry point.

    python3 perfbench/run.py --workload conf-db08|sharded-50k|serve-stream \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark from source with dune
(into .bench_build/, together with a run of the output checks' own
tests), runs the workload in a process of its own with a scratch
directory under .bench_work/ (a traced run also leaves its spans there,
as .bench_work/spans-<workload>-<seed>.jsonl), and prints that process's result as the
last line of standard output: one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, without a result, when
the build fails; exits non-zero with correct=false when a check on the
program's output fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "wgrap_perf.exe")
WORKLOADS = ("conf-db08", "sharded-50k", "serve-stream")
RUN_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/wgrap_perf.exe",
           "@perfbench/perfbench-check"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except FileNotFoundError:
        die("dune is not on PATH")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        die("build failed (exit %d)" % done.returncode)


def catalogue(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        die("result keys %s" % sorted(res))
    if not res["correct"]:
        return res
    want = catalogue(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        die("metrics printed %s differ from BENCHMARK.json %s" % (got, want))
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(ROOT, WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(ROOT, WORK_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work, "--spans", spans]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            die("workload %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die("workload %s printed no result (exit %d)" % (args.workload, proc.returncode))
    res = check_result(lines[-1], bool(args.trace))
    print(lines[-1])
    if proc.returncode != 0 or not res["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
