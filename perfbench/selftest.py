#!/usr/bin/env python3
"""Self-test of the benchmark's declarations and outputs.

Usage (from the checkout root):
    python3 perfbench/selftest.py [--static] [--seed N]

Static checks: every per_layer metric of BENCHMARK.json belongs to exactly
one layer in perfbench/metrics.json, every end-to-end metric and workload
is described there, and every declared interaction names a declared
metric and workload.  Without --static it then runs each workload once
untraced and once traced (one unit each) and checks that every declared
metric is emitted with its declared unit and that the run is correct.
Exits 1 on any failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark entry point's result checker)


def static_problems(spec, notes):
    problems = []
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    declared = set(e2e) | set(per_layer)
    if sorted(notes["end_to_end"]) != sorted(e2e):
        problems.append("metrics.json end_to_end does not match BENCHMARK.json")
    if sorted(notes["workloads"]) != sorted(workloads):
        problems.append("metrics.json workloads do not match BENCHMARK.json")
    owners = {}
    for layer in notes["layers"]:
        for name in layer["metrics"]:
            owners.setdefault(name, []).append(layer["layer"])
        for move in layer["moves"]:
            if move["metric"] not in declared:
                problems.append(f"{layer['layer']} moves undeclared "
                                f"{move['metric']}")
            for w in move["workloads"]:
                if w not in workloads:
                    problems.append(f"{layer['layer']} names unknown "
                                    f"workload {w}")
    for name in per_layer:
        if len(owners.get(name, [])) != 1:
            problems.append(f"{name} belongs to {owners.get(name, [])}")
    problems += [f"{name} is in metrics.json but not declared"
                 for name in owners if name not in per_layer]
    return problems


def run_problems(workload, trace, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}"]
    result = json.loads(lines[-1])
    problems = run.check_result(result, trace == 1)
    if not result["correct"] or result["failed"] != 0:
        problems.append("correctness check failed")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--static", action="store_true",
                        help="check declarations only, run no workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        notes = json.load(f)
    failures = [f"declarations: {p}" for p in static_problems(spec, notes)]
    if not args.static:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                problems = run_problems(workload, trace, args.seed)
                label = f"{workload} --trace {trace}"
                print(f"{label}: {'ok' if not problems else 'FAILED'}",
                      flush=True)
                failures += [f"{label}: {p}" for p in problems]
    for failure in failures:
        print(failure, file=sys.stderr)
    print("selftest:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
