#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Usage (from the repository root):
    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at the tiny size, untraced and traced,
through perfbench/run.py, and checks that each run exits 0, passes its
correctness checks and reports exactly the metrics BENCHMARK.json declares,
with their units. Then checks that the command fails without printing a
result in a directory that holds only BENCHMARK.json and perfbench/.
Exit status 0 means every check passed.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            args = spec["command"] + ["--workload", workload["name"], "--seed", "3",
                                      "--seconds", "1", "--trace", trace, "--tiny"]
            done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            label = f"{workload['name']} trace={trace}"
            try:
                result = last_json(done.stdout)
            except json.JSONDecodeError:
                result = None
            if done.returncode != 0 or result is None:
                failures.append(f"{label}: exit {done.returncode}\n{done.stdout[-2000:]}"
                                f"{done.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                failures.append(f"{label}: correct={result.get('correct')} "
                                f"attempted={result.get('attempted')}")
            units = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"ok  {label}: attempted={result['attempted']} failed={result['failed']}")

    # Without the repository's sources the command must fail and print no result.
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(ROOT, build_dir, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    done = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("the command succeeded or printed a result without the sources")
    else:
        print("ok  fails without the repository sources")

    for failure in failures:
        print("FAILED", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
