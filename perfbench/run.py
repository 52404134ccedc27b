#!/usr/bin/env python3
"""Run one workload of the oqn benchmark and print its metrics.

    python3 perfbench/run.py --workload lowdim --seed 0 --seconds 20 --trace 0

Every line but the last prints one metric with its unit (and, for times, the
sample count).  The last line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Per-op records, and the spans of
a traced run, are written to ``.perfbench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("lowdim", "highdim", "audited", "tr_indefinite")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
REFERENCE_REPEATS = 5  # the reference time between two ops is a median of this many
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(times: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile of ``times`` that has at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload, seconds: float, tracer, failures, reference) -> list:
    """Run whole batches of ops until ``seconds`` have passed; return one
    dict per op with its check record, wall time and cost.

    The fixed ``reference`` kernel runs between consecutive ops, and an op's
    cost is its wall time over the mean of the reference times right before
    and after it.  The machine the benchmark was tuned on changes speed in
    phases of seconds to tens of seconds, by up to 1.8x either way; wall
    times follow the phases and costs much less.  With a tracer, odd batches
    are traced and even ones not, so one run gives both the spans and the
    tracing overhead.
    """
    def reference_s():
        samples = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            reference()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    ops = []
    ref_before = reference_s()
    deadline = time.perf_counter() + seconds
    k = 0
    while k < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 1
        for inp in workload.batch(k):
            start = time.perf_counter()
            try:
                if traced:
                    result = tracer.op(workload.op_name, workload.root_outcome,
                                       workload.call, inp)
                else:
                    result = workload.call(inp)
            except failures as exc:
                result = exc
            wall = time.perf_counter() - start
            record = workload.check(inp, result)
            ref_after = reference_s()
            ops.append({"record": record, "s": wall, "traced": traced, "ref_s": ref_after,
                        "cost": 2.0 * wall / (ref_before + ref_after)})
            ref_before = ref_after
        k += 1
    return ops


def end_to_end(setup_s, ops) -> tuple[list, list]:
    """(metrics, notes): the end-to-end metrics as (name, value, unit, note),
    and the ones printed but not bounded: wall times, which follow the
    machine's speed phases, the failure share, and the trust-region excess,
    which applies to tr_indefinite only."""
    records = [op["record"] for op in ops]
    done = [r for r in records if "matvecs" in r]  # ops that returned
    matvecs = [r["matvecs"] for r in done] or [0]
    grad_norms = [r["grad_norm"] for r in done] or [0.0]
    n = len(ops)
    costs, times = [op["cost"] for op in ops], [op["s"] for op in ops]
    cost_tail, cost_pct = tail(costs)
    time_tail, time_pct = tail(times)
    failed = sum(not r["ok"] for r in records)
    metrics = [
        ("setup_s", setup_s, "s", f"import + median of {SETUP_REPEATS} build+warm-up"),
        ("op_cost_p50", statistics.median(costs), "ref", f"n={n}"),
        ("op_cost_tail", cost_tail, "ref", f"p{cost_pct:.1f}, n={n}"),
        ("matvecs_per_op", statistics.fmean(matvecs), "matvec/op", f"n={len(done)}"),
        ("grad_norm_p50", statistics.median(grad_norms), "norm", f"n={len(done)}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MB", "ru_maxrss"),
    ]
    notes = [
        ("op_s_p50", statistics.median(times), "s", f"n={n}"),
        ("op_s_tail", time_tail, "s", f"p{time_pct:.1f}, n={n}"),
        ("fail_frac", failed / n, "ratio", f"{failed}/{n}"),
    ]
    if "tr_excess" in records[0]:
        notes.append(("tr_excess_max", max((r["tr_excess"] for r in done), default=0.0), "ratio",
                      "(objective - exact) / (delta * radius)"))
    return metrics, notes


def print_metrics(rows) -> None:
    for name, value, unit, note in rows:
        print(f"{name:<42} {value!r} {unit}  ({note})")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "oqn" / "__init__.py").is_file():
        print(f"error: no oqn package at {src / 'oqn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import workloads  # numpy, scipy and oqn: the import users pay
    import_s = time.perf_counter() - start

    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.make_workload(args.workload, args.seed)
        workload.call(workload.batch(0)[0])
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    tracer = tracing.Tracer(workloads.oqn) if args.trace else None
    ops = measure(workload, args.seconds, tracer, workloads.OP_FAILURES,
                  workloads.make_reference(workload.reference_dim))
    failed = sum(not op["record"]["ok"] for op in ops)
    print(f"workload {args.workload} seed {args.seed}: {workload.description}")

    if tracer is None:
        metrics, notes = end_to_end(setup_s, ops)
        print_metrics(metrics + notes)
    else:
        plain = statistics.median(op["cost"] for op in ops if not op["traced"])
        traced = [op for op in ops if op["traced"]]
        op_matvecs = [op["record"]["matvecs"] for op in traced if "matvecs" in op["record"]]
        metrics = [(*m, f"per traced op, {len(traced)} traced") for m in tracing.per_layer_metrics(
            tracer, statistics.fmean(op_matvecs) if op_matvecs else 0.0,
            statistics.median(op["cost"] for op in traced) / plain - 1.0)]
        print_metrics(metrics)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "description": workload.description,
                   "metrics": {m[0]: {"value": m[1], "unit": m[2], "note": m[3]}
                               for m in metrics},
                   "ops": ops}, fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {m[0]: {"value": m[1], "unit": m[2]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
