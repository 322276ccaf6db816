#!/usr/bin/env python3
"""Exact comparison of BENCH_*.json artifacts against committed baselines.

Every column of the compared benches is virtual time or a deterministic
count, so a rerun of the same source reproduces each file byte for byte.
Any drift is a real behaviour change: it must either be fixed or land
together with a regenerated baseline whose reason CHANGES.md gives.

Usage: bench_diff.py BASELINE_DIR RESULTS_DIR

Compares the four baselined benches (BENCH_scaling,
BENCH_migration_overhead, BENCH_fleet_drain, BENCH_chaos) byte for
byte.  For a file that differs, each differing row is printed with its
identifying fields and every column that moved.  Exits 0 when every
file matches, 1 on any difference, 2 when a file is missing or
unreadable.
"""

from __future__ import annotations

import json
import pathlib
import sys

NAMES = ("BENCH_scaling", "BENCH_migration_overhead", "BENCH_fleet_drain",
         "BENCH_chaos")

# Integer columns that identify a row rather than measure it.
KEY_COLUMNS = ("seed", "enclaves", "machines", "cap", "counters",
               "dirty_per_round")


def row_label(row: dict) -> str:
    parts = [f"{key}={value}" for key, value in row.items()
             if isinstance(value, str) or key in KEY_COLUMNS]
    return " ".join(parts) if parts else "(no key fields)"


def diff_rows(name: str, baseline: dict, result: dict) -> list[str]:
    lines: list[str] = []
    base_rows = baseline.get("rows", [])
    new_rows = result.get("rows", [])
    if len(base_rows) != len(new_rows):
        lines.append(f"{name}: {len(base_rows)} baseline rows, "
                     f"{len(new_rows)} result rows")
    for index, (old, new) in enumerate(zip(base_rows, new_rows)):
        if old == new:
            continue
        changes = []
        for key in list(old) + [k for k in new if k not in old]:
            if old.get(key) != new.get(key):
                changes.append(f"{key} {old.get(key)} -> {new.get(key)}")
        lines.append(f"{name} row {index} [{row_label(old)}]: "
                     + "; ".join(changes))
    return lines


def read(path: pathlib.Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        print(f"cannot read {path}: {err}")
        return None


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: bench_diff.py BASELINE_DIR RESULTS_DIR")
        return 2
    baseline_dir = pathlib.Path(argv[1])
    results_dir = pathlib.Path(argv[2])
    differences: list[str] = []
    for name in NAMES:
        baseline = read(baseline_dir / f"{name}.json")
        result = read(results_dir / f"{name}.json")
        if baseline is None or result is None:
            return 2
        if baseline == result:
            print(f"{name}: identical")
            continue
        print(f"{name}: DIFFERS")
        try:
            lines = diff_rows(name, json.loads(baseline), json.loads(result))
        except ValueError as err:
            print(f"{name}: not valid JSON: {err}")
            return 2
        differences += lines or [f"{name}: rows equal, but top-level "
                                 "fields or formatting differ"]
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
