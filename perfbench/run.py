#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a checkout.  The script builds the benchmark
(perfbench/bench.exe) and the provmark CLI from source with dune into
.bench_build/, runs one workload in a fresh scratch directory under
.bench_work/, and relays the benchmark's output.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  WORKLOADS.md describes the
workloads and metrics.

The script exits nonzero, without printing a result, when the sources
are missing, the build fails or the benchmark does not finish.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ["suite-cold", "suite-warm", "provgen-scale", "serve-mixed"]
BUILD_DIR = ".bench_build"
WORK_ROOT = ".bench_work"
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join(BUILD_DIR, "default", "bin", "provmark_cli.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout the whole group
    (the benchmark and any daemon it started) is killed and reaped."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(cmd)} did not finish within {timeout} s")
    return proc.returncode, out


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run from the root of a provmark checkout (dune-project, lib/ and bin/ not found)")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep it off.
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
           "./perfbench/bench.exe", "./bin/provmark_cli.exe"]
    code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")


def run_workload(workload, seed, seconds, trace):
    """Runs one workload and returns (output lines, parsed result)."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--cli", CLI_EXE, "--work", work]
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        fail(f"workload {workload} failed (exit {code})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"workload {workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        fail(f"workload {workload} printed a malformed result line")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    if args.workload != "all":
        lines, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        return
    # One command for every workload: each one's metrics by name and unit.
    results = {}
    for workload in WORKLOADS:
        lines, result = run_workload(workload, args.seed, args.seconds, args.trace)
        print(f"== {workload}")
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = result
    print(json.dumps({"workloads": results}))


if __name__ == "__main__":
    main()
