#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 clairbench/selftest.py

Run it from the repository root. It checks, in order:
  1. BENCHMARK.json keeps the benchmark contract's shape and limits, and
     layer_map.json names only metrics and workloads BENCHMARK.json declares,
     with an entry for every per-layer metric;
  2. every workload, run in short mode (a 24+4-app corpus and reduced phase
     sizes) with --trace 0 and with --trace 1, is correct, reports no failed
     operation, and emits every metric BENCHMARK.json names with its unit;
  3. a run whose reference row is deliberately perturbed reports the
     mismatch as a failed operation and the run as not correct.
Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "every name is used once")
    check(all(NAME.match(n) for n in names), "every name keeps the name alphabet and length")
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"} and len(workload["why"]) <= 200 and
              "\n" not in workload["why"], "workload %s has a one-line why" % workload["name"])
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"} and UNIT.match(metric["unit"])
              and metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25,
              "end-to-end metric %s is well formed" % metric["name"])
    for metric in spec["per_layer"]:
        check(set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
              and metric["better"] in ("lower", "higher"),
              "per-layer metric %s is well formed" % metric["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is declared in s, lower is better, with the largest bound")

    with open(os.path.join(HERE, "layer_map.json")) as handle:
        layer_map = json.load(handle)
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    check(set(layer_map["workloads"]) == workloads,
          "layer_map.json describes exactly the declared workloads")
    mapped = [entry["metric"] for entry in layer_map["layers"]]
    check(sorted(mapped) == sorted(m["name"] for m in spec["per_layer"]),
          "layer_map.json has one entry per per-layer metric")
    targets_ok = True
    for entry in layer_map["layers"]:
        for link in entry.get("moves", []) + entry.get("no_move", []):
            targets_ok &= link["metric"] in end_to_end and set(link["workloads"]) <= workloads
    check(targets_ok, "layer_map.json points only at declared end-to-end metrics and workloads")
    return spec


def run(workload, trace, perturb=False):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "20170508", "--seconds", "1", "--trace", str(trace), "--short"]
    if perturb:
        command.append("--perturb-reference")
    process = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if process.returncode != 0:
        sys.stderr.write(process.stderr[-4000:])
        return None
    return json.loads(process.stdout.strip().splitlines()[-1])


def main():
    spec = check_spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            result = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            check(result is not None, label + ": exits 0 with a result line")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  label + ": correct, %d attempted, %d failed" % (result["attempted"],
                                                                 result["failed"]))
            check(all(result["metrics"].get(m["name"], {}).get("unit") == m["unit"]
                      for m in declared) and len(result["metrics"]) == len(declared),
                  label + ": emits every declared metric with its unit")
        result = run(workload, 0, perturb=True)
        check(result is not None and not result["correct"] and result["failed"] >= 1,
              "%s: a perturbed reference row is reported as a failed operation" % workload)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
