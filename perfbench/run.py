#!/usr/bin/env python3
"""Socket-to-socket benchmark for gdlogd.

Builds gdlogd and the benchmark driver from the checkout this file sits in,
then runs one workload against real gdlogd processes over loopback:

    python3 perfbench/run.py --workload exact_stratified --seed 1 \\
        --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced rerun plus an in-process replay. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload all      # every workload, both modes
    python3 perfbench/run.py --selftest          # the benchmark's unit tests

Build outputs, daemon logs and span files go under $CARGO_TARGET_DIR
(default .bench_build) in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["exact_stratified", "exact_stable", "serve_rw", "fleet_warm"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    out = build_dir()
    log = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    with open(log, "a") as sink:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "-j", jobs, "--target"] +
                     targets)
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=sink,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write("perfbench: build failed; see %s\n" % log)
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                return None
    return out


def run_driver(out, workload, seed, seconds, trace):
    work = os.path.join(out, "runs")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_driver"),
           "--gdlogd", os.path.join(out, "gdlog", "tools", "gdlogd"),
           "--work-dir", work, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if args.selftest:
        out = build(["perfbench_test", "gdlogd"])
        if out is None:
            return 1
        return subprocess.run([os.path.join(out, "perfbench_test")],
                              cwd=ROOT).returncode

    out = build(["gdlogd", "perfbench_driver"])
    if out is None:
        return 1

    if args.workload != "all":
        code, lines, result = run_driver(out, args.workload, args.seed,
                                         args.seconds, args.trace)
        if result is None:
            sys.stderr.write("\n".join(lines) + "\n")
            sys.stderr.write("perfbench: driver exited %d without a result\n"
                             % code)
            return 1
        print("\n".join(lines))
        return 0

    summary = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_driver(out, workload, args.seed,
                                             args.seconds, trace)
            print("\n".join(lines[:-1] if result else lines))
            if result is None:
                sys.stderr.write("perfbench: %s --trace %d exited %d\n"
                                 % (workload, trace, code))
                ok = False
                continue
            ok = ok and result["correct"]
            summary["%s/trace%d" % (workload, trace)] = result
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
