#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the clairbench driver and the library tree from source (first run
only; later runs rebuild incrementally), runs one workload, checks that the
result names every metric BENCHMARK.json declares with its unit, and prints
the result as the last line of standard output.

    python3 clairbench/run.py --workload corpus_cold --seed 20170508 \
        --seconds 18 --trace 0

Run it from the repository root. Build output goes to .bench_build/ under
the root; build logs go to standard error. The line before the result holds
the run's details: phase sizes, the serving ladder, the slowest symbolic
exploration, and a stamp with nproc, build type, compiler, corpus parameters,
the git commit (when the tree is a git checkout) and a digest of src/.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "clairbench")
BINARY = os.path.join(BUILD_DIR, "clairbench")
# A run must end within 180 s. The first run in a checkout also builds; that
# time is not counted against the driver binary.
RUN_LIMIT_S = 170.0


def fail(message, code=1):
    print("clairbench: " + message, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures on first use, then builds incrementally. Serialized by a
    lock so concurrent runs in one checkout never race on the build tree."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
            configure = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", generator,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, stderr=sys.stderr)
            if configure.returncode != 0:
                # Leave no half-configured tree behind for the next run.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                fail("configure failed", 2)
        result = subprocess.run(
            ["cmake", "--build", BUILD_DIR, "-j", str(nproc())],
            stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed", 2)


def source_digest():
    """sha256 over every file under src/ (path and bytes, sorted by path):
    names the code measured even where the tree is not a git checkout."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns a description of the first contract violation, or None."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        return "result line lacks the correct/attempted/failed/metrics keys"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number"
    expected = expected_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra)
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            return "metric %s has unit %r, BENCHMARK.json says %r" % (
                name, metrics[name].get("unit"), unit)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "metric %s has no finite value" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus_cold", "edit_rescore"])
    parser.add_argument("--seed", type=int, default=20170508)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test hooks (selftest.py): a reduced corpus and phase sizes, and a
    # deliberately perturbed reference row that must surface as a failure.
    parser.add_argument("--short", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--perturb-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed non-negative", 2)

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s_seed%d.json" % (args.workload, args.seed))]
    if args.short:
        command.append("--short")
    if args.perturb_reference:
        command.append("--perturb-reference")
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail("driver exceeded the run time limit")
    if process.returncode != 0:
        fail("driver exited with code %d" % process.returncode)
    lines = [line for line in output.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("driver printed no result")
    try:
        details = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        fail("driver output is not JSON: %s" % error)
    problem = check_result(result, args.trace)
    if problem is not None:
        fail(problem)
    details["git_commit"] = git_commit()
    details["source_digest"] = source_digest()
    print(json.dumps({"details": details}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
