#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run of a checkout compiles. The driver's
stdout is passed through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. When the build or the run
fails, this script exits non-zero without printing a result line; the driver
turns a hang into a failure with its own watchdog. perfbench/README.md
documents workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("slotted_day", "fleet_city", "gateway_replay", "gateway_sync")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_BUDGET_S = 840.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_group(command, timeout, stdout):
    """Runs `command` in its own process group and waits for it. On timeout
    (None waits for ever) the whole group (make's compilers too) is killed
    and reaped, and the return code is None. Returns (return code, captured
    stdout or None)."""
    try:
        proc = subprocess.Popen(command, stdout=stdout, stderr=sys.stderr,
                                text=True, start_new_session=True)
    except OSError as error:
        fail("cannot run {}: {}".format(command[0], error))
    try:
        out, _ = proc.communicate(
            timeout=None if timeout is None else max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    return proc.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the driver; compiler output goes to
    stderr so stdout stays the driver's own."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = any(os.path.exists(os.path.join(out_dir, name))
                     for name in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_BUDGET_S
    for step in steps:
        code, _ = run_group(step, deadline - time.monotonic(), sys.stderr)
        if code is None:
            fail("build timed out: " + " ".join(step))
        if code != 0:
            fail("build step failed: " + " ".join(step))


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "expected.json")) as f:
        pins = json.load(f)
    return pins["digests"].get(workload, {}).get(str(seed))


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    build(out_dir)
    binary = os.path.join(out_dir, "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    digest = expected_digest(args.workload, args.seed)
    if digest:
        command += ["--expect-digest", digest]
    if args.trace:
        command += ["--spans",
                    os.path.join(out_dir, "spans-{}.json".format(args.workload))]

    code, out = run_group(command, None, subprocess.PIPE)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if code != 0 or not lines:
        fail("driver exited with code {}".format(code))

    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a result object")
    if set(result) != RESULT_KEYS:
        fail("result keys {} are not {}".format(sorted(result),
                                                sorted(RESULT_KEYS)))
    missing = [n for n in metric_names(args.trace) if n not in result["metrics"]]
    if missing:
        fail("result lacks metrics: " + ", ".join(missing))
    print(lines[-1])


if __name__ == "__main__":
    main()
