#!/usr/bin/env python3
"""Builds the end-to-end benchmark driver and runs one workload.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source tree: the build goes to .bench_build/ at
the tree's root (the first run configures and compiles the smartdd library
and the driver; later runs only re-check it). Build output goes to stderr.

The measured time is split over PROCESSES driver processes run one after
another on the same data, each driving its own part of the seed's session
sequence, and each request metric is the median over them: on a
virtual machine one process can run at a steadily different speed from the
next, and the median keeps one such process from moving the figure. The last
stdout line is the combined JSON result. Exits non-zero, printing no result,
when the sources are missing, the build fails, or a driver fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROCESSES = 5
RUN_BUDGET_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"smartdd sources not found under {ROOT}", 2)
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_driver",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(step))
    return BUILD / "e2e_driver"


def run_driver(driver, args, part, seconds, deadline):
    """Runs one driver process and returns its parsed JSON result."""
    scratch = BUILD / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    command = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", args.trace, "--part", str(part),
               "--scratch", str(scratch)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_BUDGET_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        fail(f"driver exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    driver = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    results = [run_driver(driver, args, part, args.seconds / PROCESSES, deadline)
               for part in range(PROCESSES)]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        # Set-up is sampled at two instants per process, and the host's
        # speed moves in phases of several seconds: the mean over those
        # instants follows the share of slow time smoothly, where a median
        # jumps between the phases.
        combine = statistics.mean if name == "setup_s" else statistics.median
        metrics[name] = {"value": combine(values), "unit": first["unit"]}
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
