#!/usr/bin/env python3
"""Repository benchmark: builds the workload driver and runs one workload.

Usage (from the checkout root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver binary is built from this checkout with CMake into the build
directory named by $CARGO_TARGET_DIR (default .bench_build, relative to
the checkout root); an up-to-date build is a no-op.  The workload runs in
its own single-threaded process.  Its last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; this script checks that the
metric names and units are exactly the ones BENCHMARK.json declares for
the mode (end_to_end for --trace 0, per_layer for --trace 1) and prints
that object as its own last line.

Exit codes: 0 ok; 1 a correctness check failed (the result line is still
printed, with "correct": false); 2 no source tree to build; 3 build
failed; 4 the workload crashed, timed out, or emitted undeclared metrics.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(2, f"no source tree to build under {ROOT}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_workload"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail(3, "build failed: " + " ".join(step))
    return os.path.join(out, "perfbench_workload")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Every declared metric is present with its declared unit, no more."""
    declared = declared_metrics(trace)
    emitted = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = []
    for name, unit in declared.items():
        if name not in emitted:
            problems.append(f"missing {name}")
        elif emitted[name] != unit:
            problems.append(f"{name} unit {emitted[name]!r} != {unit!r}")
    problems += [f"undeclared {name}" for name in emitted if name not in declared]
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems


def run_workload(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"workload exceeded {WORKLOAD_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(4, f"workload exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(4, "workload's last line is not JSON")
    return proc.returncode, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    binary = build()
    print(f"perfbench: build ready in {time.monotonic() - started:.1f}s",
          file=sys.stderr)
    code, chatter, result = run_workload(binary, args)
    problems = check_result(result, args.trace == 1)
    if problems:
        fail(4, "metrics do not match BENCHMARK.json: " + "; ".join(problems))
    for line in chatter:
        print(line)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
