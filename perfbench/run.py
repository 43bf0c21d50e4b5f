#!/usr/bin/env python3
"""Entry point of the repo benchmark.

Builds bfdn_serve and the perfbench harness from the repository sources
(Release, into .bench_build/perfbench at the repository root), then runs
one workload and passes the harness's output through; the last stdout
line is the result object.

  python3 perfbench/run.py --workload cold_explore --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

Build output goes to stderr. Exit status: the harness's (0 = correct),
or 1 when the build or the self-tests fail.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["cold_explore", "campaign_sweep", "warm_hits", "store_rewarm"]
TARGETS = ["bfdn_serve", "perfbench", "perfbench_selftest"]
# Longer than any single run may take; the harness caps itself well below.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS]
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"), HERE]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    """HEAD when the checkout is itself a git work tree, else unknown."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_harness(args, workload):
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit(), "--source-digest", source_digest()]
    # Own process group: on a timeout the harness and the bfdn_serve
    # children it started are stopped together.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not build():
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]
                              ).returncode
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        sys.stdout.flush()
        status = max(status, run_harness(args, workload))
    return status


if __name__ == "__main__":
    sys.exit(main())
