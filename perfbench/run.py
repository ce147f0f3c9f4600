#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        --slo-ms solve-paper=25,solve-dp-heavy=1000,serve-online=10,serve-batch=25
        --online-rps 6000

Run it from the root of a checkout. The program is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use and
rebuilt when sources change. The last line of standard output is the result
object; traced runs write their spans next to the build.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("solve-paper", "solve-dp-heavy", "serve-online", "serve-batch")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slo-ms", required=True,
                        help="latency limit per workload, as name=ms pairs")
    parser.add_argument("--online-rps", type=float, default=0.0,
                        help="offered rate of serve-online, requests per second")
    args = parser.parse_args()
    limits = {}
    for pair in args.slo_ms.split(","):
        name, _, value = pair.partition("=")
        limits[name.strip()] = float(value)
    if args.workload not in limits:
        parser.error("--slo-ms has no limit for " + args.workload)
    args.slo_limit = limits[args.workload]
    return args


def run_logged(cmd, log, timeout):
    """Runs cmd with output appended to log; returns its exit code."""
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log.write("timed out after %d s\n" % timeout)
        return 1


def build(root, build_dir):
    """Configures and builds the program; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        # A configure that failed leaves no Makefile, so it is retried.
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            code = run_logged(["cmake", "-S", os.path.join(root, "perfbench"),
                               "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                              log, BUILD_TIMEOUT_S)
            if code != 0:
                return None, log_path
        jobs = str(min(4, os.cpu_count() or 1))
        code = run_logged(["cmake", "--build", build_dir, "--target",
                           "pcmax_perfbench", "-j", jobs], log,
                          max(1, deadline - time.monotonic()))
        if code != 0:
            return None, log_path
    return os.path.join(build_dir, "pcmax_perfbench"), log_path


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")

    binary, log_path = build(root, build_dir)
    if binary is None:
        sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--slo-ms", repr(args.slo_limit)]
    if args.workload == "serve-online":
        cmd += ["--online-rps", repr(args.online_rps)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=root,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        sys.stderr.write("perfbench: program exited with %d\n" % proc.returncode)
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError("unexpected keys %s" % sorted(result))
    except (IndexError, ValueError) as error:
        sys.stderr.write("perfbench: no result line (%s)\n" % error)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
