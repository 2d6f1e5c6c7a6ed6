#!/usr/bin/env python3
"""EndBox end-to-end data-path benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of an EndBox source tree. Builds perfbench/ (which
pulls the EndBox library in from the parent CMake project) into
.bench_build/perfbench, then runs one measured run of one workload.
The binary checks every delivered packet; the last line of standard
output is one JSON object with the run's metrics. The exit code is 0
only when the build succeeded and every output check passed.
"""
import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("c2c_mtu_idps", "fanin_small_fw", "downlink_stream_dirty")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as exc:
        log(f"perfbench: {' '.join(cmd)}: {exc}")
        return False
    return done.returncode == 0


def build(root, build_dir):
    """Configures (when there is no cache yet) and builds; a failed
    build reconfigures once, in case the cache is stale."""
    source = os.path.join(root, "perfbench")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    configure = ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", build_dir, "--target", "endbox_perfbench", "-j", BUILD_JOBS]
    left = lambda: max(1.0, deadline - time.monotonic())
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if fresh and not run_quiet(configure, left()):
        return None
    if not run_quiet(compile_, left()):
        if fresh or not (run_quiet(configure, left()) and run_quiet(compile_, left())):
            return None
    binary = os.path.join(build_dir, "endbox_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        log("perfbench: build failed (is perfbench/ inside an EndBox source tree?)")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir, f"spans_{args.workload}_{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        valid = False
    if not valid:
        log(done.stdout)
        log(f"perfbench: no result line (exit code {done.returncode})")
        return done.returncode or 1
    print(done.stdout, end="" if done.stdout.endswith("\n") else "\n", flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
