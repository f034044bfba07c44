#!/usr/bin/env python3
"""Run one workload of the UFC benchmark and print its result line.

    python3 ufcbench/run.py --workload sweep|fhe_ops \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds libufc and the ufcbench binary from
source (CMake, RelWithDebInfo) into .bench_build/ufcbench, repeats the
workload's set-up in separate processes, then runs the measured
process.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the host/build fingerprint
and refusals by reason go to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ufcbench")
BINARY = os.path.join(BUILD, "ufcbench")
WORKLOADS = ("sweep", "fhe_ops")
# Set-up runs per measurement: the measured process plus these extra
# set-up-only processes; setup_s is their median.
SETUP_REPEATS = 4
TIMEOUT_S = 170


def fail(msg):
    print("ufcbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no UFC sources under %s/src; run from a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "ufcbench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_binary(args):
    """Run the ufcbench binary; return (fingerprint, result) from its output."""
    cmd = [BINARY, "--golden-dir", os.path.join(HERE, "golden"),
           "--work-dir", os.path.relpath(BUILD, ROOT)] + args
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail("ufcbench exited %d: %s" % (done.returncode, " ".join(cmd)))
    return json.loads(lines[0])["fingerprint"], json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    build()
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    setups, raw_setups = [], []
    if not a.trace:
        for _ in range(SETUP_REPEATS - 1):
            _, r = run_binary(common + ["--seconds", "1", "--setup-only"])
            setups.append(r["setup_s"])
            raw_setups.append(r["setup_raw_s"])
    fingerprint, r = run_binary(common + ["--seconds", str(a.seconds),
                                          "--trace", str(a.trace)])
    metrics = r["metrics"]
    if not a.trace:
        setups.append(r["setup_s"])
        raw_setups.append(r["setup_raw_s"])
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
        print("ufcbench: setup_s median as measured %s s"
              % statistics.median(raw_setups), file=sys.stderr)
    print("ufcbench: host %s" % json.dumps(fingerprint), file=sys.stderr)
    for s in r["spreads"]:
        tail = ("tail p%g = %s ms" % (s["tail_pct"], s["tail"])
                if s["tail_pct"] else "too few samples for a tail")
        print("ufcbench: %s over %d samples: quartiles %s .. %s ms, %s; "
              "median as measured %s ms"
              % (s["name"], s["samples"], s["q1"], s["q3"], tail,
                 s["raw_median"]), file=sys.stderr)
    if r["refused"]:
        print("ufcbench: refused by reason %s" % json.dumps(r["refused"]),
              file=sys.stderr)
    for name, m in metrics.items():
        if m["value"] is None:
            fail("metric %s has no value (too few samples or an "
                 "infinite latency)" % name)
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
