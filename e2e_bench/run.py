#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds e2e_bench (Release) from the source tree this directory sits in, runs
one workload, and passes its output through; the last stdout line is the
result JSON.  Run from the root of the source tree:

    python3 e2e_bench/run.py --workload sweep_flagship --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/e2e_bench when that variable is set,
else to .bench_build/e2e_bench.  Checkpoint files go to a unique directory
under the build directory, removed when the run ends, failed or not.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_flagship", "longrun_epoch", "bb_sample")
RUN_TIMEOUT_S = 170


def run_checked(cmd, what):
    """Runs a build step with its output on stderr; exits 1 if it fails."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: {what} failed (exit {result.returncode})")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", jobs], "build")
    return os.path.join(build_dir, "e2e_bench")


def git_provenance():
    """(commit, dirty) of the source tree, or ("unknown", "unknown") outside git."""
    def git(*args):
        result = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
        return result.stdout.strip() if result.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown", "unknown"
        commit = git("rev-parse", "HEAD") or "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
        return commit, "unknown" if status is None else ("1" if status else "0")
    except OSError:
        return "unknown", "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("run.py: --seed must be >= 0 and --seconds >= 1")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(build_root, "e2e_bench"))
    commit, dirty = git_provenance()

    tmp_parent = os.path.join(build_root, "e2e_bench", "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch, "--git-commit", commit, "--git-dirty", dirty],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        sys.exit(result.returncode)

    lines = result.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else {}
    expected = expected_metrics(args.trace == 1)
    if expected is not None and list(line.get("metrics", {})) != expected:
        sys.exit("run.py: the metrics printed differ from BENCHMARK.json")


if __name__ == "__main__":
    main()
