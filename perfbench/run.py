#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; the reference-output cache and
trace files go to perfbench-work/ next to it. Every GC_* variable is
removed from the benchmark's environment (the names are reported in the
detail line) so that stray library knobs cannot change what is measured.
The last line of stdout is the result JSON; build logs go to stderr.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_table1", "dlrm_top_int8")
# A run must end within 180 s; the binary itself finishes well inside this.
RUN_TIMEOUT_S = 170


def run_child(cmd, timeout=None, **kwargs):
    """Runs cmd; stops it if this script is stopped or the timeout passes."""
    proc = subprocess.Popen(cmd, **kwargs)

    def stop(signum, frame):
        proc.kill()
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


def build(build_dir):
    """Configures (once) and builds the perfbench target; None on failure."""
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("Makefile", "build.ninja")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if run_child(step, stdout=sys.stderr) != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    # Compiler and library temporary files stay inside the checkout too.
    tmp = os.path.join(target, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        binary = build(os.path.join(target, "perfbench"))
    except OSError as e:
        binary = None
        print(f"perfbench: {e}", file=sys.stderr)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    stray = sorted(k for k in os.environ if k.startswith("GC_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("GC_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(target, "perfbench-work"),
           "--stray-env", ",".join(stray)]
    return run_child(cmd, timeout=RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
