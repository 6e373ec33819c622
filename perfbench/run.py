#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from anywhere inside a checkout. It configures and builds
perfbench/ (which compiles the library from ../src) with CMake into
$CARGO_TARGET_DIR/perfbench (default: .bench_build/perfbench under the
checkout root), runs the benchmark binary, and prints the binary's
result JSON as the last line of stdout. Build logs and the human
report go to stderr. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reproduce_all", "chip_sweep", "event_fronts")
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run(binary, build_dir, workload, seed, seconds, trace):
    """Run one workload; returns the result dict (exits on failure)."""
    command = [binary,
               "--workload", workload,
               "--seed", str(seed),
               "--seconds", "%g" % seconds,
               "--trace", str(trace),
               "--root", ROOT,
               "--out-dir", os.path.join(build_dir, "out")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: no result within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)

    lines = proc.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: no result line from the benchmark")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result %r" % lines[-1])
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true",
        help="traced runs of chip_sweep and event_fronts; fails unless "
             "decorated and undecorated results are bit-identical")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    if not args.self_test and (args.seed < 0 or args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are not next to "
                 "perfbench/; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    if args.self_test:
        for workload in ("chip_sweep", "event_fronts"):
            result = run(binary, build_dir, workload, 12345, 1, 1)
            print("%s: %d of %d checks failed" %
                  (workload, result["failed"], result["attempted"]))
            if not result["correct"]:
                sys.exit("perfbench: self-test failed on %s" % workload)
        return
    result = run(binary, build_dir, args.workload, args.seed, args.seconds,
                 args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
