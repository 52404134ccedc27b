"""Command-line harness.

Subcommands: ``run <config>``, ``verify [--level quick|full]``,
``bench <config>``, ``dump-params <config>``.  Exit codes: 0 success,
1 usage error, 2 audit or certificate failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import harness, verify
from .errors import CertificateFailure, OqnError


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    t0 = time.perf_counter()
    report = harness.run_experiment(cfg)
    wall = time.perf_counter() - t0
    doc = harness.report_document(cfg, report)
    harness.write_outputs(cfg, report, doc)
    print(harness.to_json(doc))
    print(f"wall_time_s={wall:.3f}", file=sys.stderr)
    return 0 if doc["audits"].get("all_ok", True) else 2


def _cmd_verify(args) -> int:
    checks = verify.run_all(args.level)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"[{status}] {c.name}"
        if c.detail:
            line += f"  ({c.detail})"
        print(line)
        failed += 0 if c.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 2


def _cmd_bench(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()
    rows, summary = harness.bench(text)
    print(",".join(["method,budget,seed,best_grad_norm,gradients,matvecs", *summary["axes"]]))
    for row in rows:
        print(",".join(map(str, row)))
    for key, median in summary["medians"].items():
        print(f"# median[{','.join(map(str, key))}] = {median:.4e}", file=sys.stderr)
    for key, slope in summary["slopes"].items():
        print(f"# slope[{','.join(key)}] = {slope:.4f}", file=sys.stderr)
    return 0


def _cmd_dump_params(args) -> int:
    cfg = harness.load_config(args.config)
    params_of, _ = harness.METHODS[cfg.method]
    print(harness.to_json(params_of(cfg, harness.build_spec(cfg)).document()))
    return 0


class _UsageExit1Parser(argparse.ArgumentParser):
    """Usage errors exit 1; code 2 is reserved for audit failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _UsageExit1Parser(prog="oqn", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_UsageExit1Parser)

    p_run = sub.add_parser("run", help="run a single configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--level", default="quick", choices=("quick", "full"))
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="grid of run cells; <key>s=v1,v2 sweeps a run key")
    p_bench.add_argument("config")
    p_bench.set_defaults(func=_cmd_bench)

    p_dump = sub.add_parser("dump-params", help="print the params block a run uses")
    p_dump.add_argument("config")
    p_dump.set_defaults(func=_cmd_dump_params)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage()
        return 1
    try:
        return args.func(args)
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 2
    except (OqnError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
