#!/usr/bin/env python3
"""Gate a fresh bench run against the committed BENCH_*.json baseline.

Compares the deterministic fields of each run record in FRESH with the record
of the same identity in BASELINE:

  * pivots (``lp_iterations``), lazy rounds (``lazy_rounds``) and envy rows
    (``envy_rows_added``) may not grow by more than ``GROWTH_TOLERANCE``
    (2% relative);
  * the objective (``objective``) may not move by more than
    ``OBJECTIVE_TOLERANCE`` (1e-6) relative to ``1 + |baseline|``.

Records are matched on ``(n, arm)`` when they carry ``n`` (bench_scaling) and
on ``arm`` otherwise (bench_churn). Every fresh record must have a baseline
counterpart — regenerate the committed file when arms or sizes change —
while baseline records the fresh run did not cover (a smoke run at smaller
n) are skipped. Wall-clock fields are never compared: they do not reproduce
across machines. Fields that shrank are reported so the baseline can be
refreshed; they do not fail the gate.

Usage: bench_diff.py BASELINE FRESH
Exit code: 0 when every gate holds, 1 otherwise.
"""

import argparse
import json
import sys

GROWTH_FIELDS = ("lp_iterations", "lazy_rounds", "envy_rows_added")
OBJECTIVE_FIELD = "objective"
GROWTH_TOLERANCE = 0.02
OBJECTIVE_TOLERANCE = 1e-6


def record_key(record):
    if "n" in record:
        return (record["n"], record["arm"])
    return (record["arm"],)


def load_runs(path):
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    keyed = {}
    for record in runs:
        key = record_key(record)
        if key in keyed:
            raise SystemExit(f"{path}: duplicate run record {key}")
        keyed[key] = record
    return keyed


def compare(baseline, fresh):
    failures = []
    notes = []
    for key, record in fresh.items():
        label = " ".join(str(part) for part in key)
        base = baseline.get(key)
        if base is None:
            failures.append(f"{label}: no baseline record (regenerate the committed file)")
            continue
        for field in GROWTH_FIELDS:
            if field not in record or field not in base:
                continue
            old, new = base[field], record[field]
            if new > old * (1.0 + GROWTH_TOLERANCE):
                failures.append(f"{label}: {field} grew {old} -> {new} "
                                f"(> {GROWTH_TOLERANCE:.0%} tolerance)")
            elif new < old:
                notes.append(f"{label}: {field} shrank {old} -> {new}")
        if OBJECTIVE_FIELD in record and OBJECTIVE_FIELD in base:
            old, new = base[OBJECTIVE_FIELD], record[OBJECTIVE_FIELD]
            if abs(new - old) > OBJECTIVE_TOLERANCE * (1.0 + abs(old)):
                failures.append(f"{label}: objective moved {old!r} -> {new!r} "
                                f"(> {OBJECTIVE_TOLERANCE:g} relative)")
    return failures, notes


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    args = parser.parse_args(argv)

    fresh = load_runs(args.fresh)
    if not fresh:
        print(f"{args.fresh}: no run records")
        return 1
    failures, notes = compare(load_runs(args.baseline), fresh)
    for note in notes:
        print(f"  note: {note}")
    for failure in failures:
        print(f"  FAIL: {failure}")
    print(f"bench_diff: {len(fresh)} record(s) compared against {args.baseline}, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
