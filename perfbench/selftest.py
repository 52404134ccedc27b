#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 2] [--seed 3]

For every workload it runs ``run.py`` twice with one seed and requires the
op records both runs completed to be identical: matvecs, gradients, branch
counts, gradient norms and trust-region excess are all exact counts or
deterministic values.  It checks that the last line of each run carries
exactly the metrics ``BENCHMARK.json`` lists, with their units, for
``--trace 0`` and ``--trace 1``.  Last, it checks that the benchmark fails
without printing a result in a directory that holds only ``BENCHMARK.json``
and ``perfbench/``.  Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
RUN = [sys.executable, "perfbench/run.py"]


def run(workload: str, seed: int, seconds: float, trace: int, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        records = []
        for _ in range(2):
            result = result_of(run(workload, args.seed, args.seconds, 0))
            if not result["correct"]:
                problems.append(f"{workload}: outputs failed their checks")
            out = json.loads((OUT_DIR / f"{workload}-seed{args.seed}-trace0.json").read_text())
            records.append([op["record"] for op in out["ops"]])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[0]:
                problems.append(f"{workload}: trace 0 metrics {units} != {expected[0]}")
        common = min(len(r) for r in records)
        same = records[0][:common] == records[1][:common]
        print(f"{workload}: {common} ops in common, records identical: {same}")
        if not same:
            problems.append(f"{workload}: same seed gave different op records")
        traced = result_of(run(workload, args.seed, args.seconds, 1))
        units = {k: v["unit"] for k, v in traced["metrics"].items()}
        if units != expected[1]:
            problems.append(f"{workload}: trace 1 metrics {units} != {expected[1]}")

    stripped = OUT_DIR / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(ROOT / "perfbench", stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], args.seed, args.seconds, 0, cwd=stripped)
    print(f"without src/: exit code {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark ran without the package it measures")
    shutil.rmtree(stripped)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
