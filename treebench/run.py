#!/usr/bin/env python3
"""Builds and runs the treenum benchmark.

    python3 treebench/run.py --workload <doc_edits|enumerate|register|serve>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (and the treenum library it adds) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.

--trace 0 runs the untraced binary and prints its end-to-end metrics.
--trace 1 runs the untraced binary and then the traced one, each for half of
--seconds (at least 1), so a traced run takes no longer than an untraced one.
It prints the per-layer metrics of the traced run together with the tracing
overhead: each end-to-end metric of the traced run divided by the same metric
of the untraced run of the same length. The spans of the traced run are
written to .bench_out/.

Build output goes to standard error; the last line of standard output is
the result object.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("doc_edits", "enumerate", "register", "serve")


def fail(msg):
    print("treebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "treebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the benchmark failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target", "treebench",
           "treebench_traced"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return build_dir


def run(binary, args, seconds, extra=()):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("%s exited with %d" % (os.path.basename(binary), proc.returncode))
    for line in lines[:-1]:
        print(line)
    end_to_end = {}
    for line in lines[:-1]:
        obj = json.loads(line)
        end_to_end = obj.get("end_to_end", end_to_end)
    return json.loads(lines[-1]), end_to_end


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")

    build_dir = build()
    seconds = max(1, args.seconds // 2) if args.trace else args.seconds
    result, untraced = run(os.path.join(build_dir, "treebench"), args, seconds)
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, "spans_%s_%d.tsv" % (args.workload, args.seed))
        traced_result, traced = run(os.path.join(build_dir, "treebench_traced"),
                                    args, seconds, ["--trace-out", spans])
        metrics = dict(traced_result["metrics"])
        for name, m in untraced.items():
            base = m["value"]
            ratio = traced[name]["value"] / base if base else 0.0
            metrics["overhead." + name] = {"value": ratio, "unit": "ratio"}
        result = {
            "correct": result["correct"] and traced_result["correct"],
            "attempted": result["attempted"] + traced_result["attempted"],
            "failed": result["failed"] + traced_result["failed"],
            "metrics": metrics,
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
