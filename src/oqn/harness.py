"""Experiment harness: configs, the method table, brute-force oracles,
reports and the bench grid.

The config format is flat key=value text (diff-friendly, no dependencies).
The run keys are ``RunConfig``'s fields, cast to their types, with the
dataclass holding the defaults; ``params=manual`` adds ``HyperParams``'
fields, and each family its knobs.  ``config_from_pairs`` is the one
parser: every cell of a bench grid is an ``oqn run`` config, and a key
given as ``<key>s=v1,v2,...`` is an axis of the grid.  Reports are JSON
whose content is a pure function of (config, seed); wall time goes to the
console, so reruns are bit-identical.  ``METHODS`` is the one place that
dispatches on a config's ``method`` (``bench`` only turns a budget into
gradient descent's step count): it gives the method's params object and
runs it, and every method returns a ``driver.RunReport``.  A report's
``params`` block is its params object's ``document()`` and its ``result``
block holds the run's totals (``driver.new_totals``) as they are.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional, get_args, get_type_hints

import numpy as np
from numpy.typing import NDArray

from . import driver
from .driver import GdParams, HyperParams, RunReport, compute_hyperparams
from .errors import (InvalidArgument, check_int_at_least, check_one_of, check_open_unit,
                     check_positive)
from .problems import CATALOG_NAMES, ObjectiveSpec, catalog, family_knobs
from .rng import RngStream

CSV_HEADER = "k,grad_norm_wbar,episode_regret,sum_loss,cum_gradients,cum_matvecs"


@dataclass
class RunConfig:
    problem: str = "cosine_mixture"
    dim: int = 4
    method: str = "oqn"
    budget: int = 120
    seed: int = 0
    problem_seed: int = 0
    p_fail: float = 0.01
    audit: str = "episode"
    params: str = "auto"
    gap_bound: Optional[float] = None
    manual: Optional[HyperParams] = None
    step_size: Optional[float] = None
    eps_target: Optional[float] = None
    out_csv: Optional[str] = None
    out_report: Optional[str] = None
    problem_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        check_one_of("method", self.method, tuple(METHODS))
        check_one_of("audit", self.audit, driver.AUDIT_LEVELS)
        check_one_of("params", self.params, ("auto", "manual"))
        check_int_at_least("budget", self.budget, 1)
        check_open_unit("p_fail", self.p_fail)
        for key in ("seed", "problem_seed"):
            check_int_at_least(key, getattr(self, key), 0)
        if self.eps_target is not None:
            check_positive("eps_target", self.eps_target)


def _field_casts(cls, skip: tuple) -> dict:
    """Each field of ``cls`` not in ``skip``, with the type a config value
    for it is cast to (``Optional[T]`` casts to ``T``)."""
    hints = get_type_hints(cls)
    casts = {}
    for f in fields(cls):
        if f.name not in skip:
            args = [a for a in get_args(hints[f.name]) if a is not type(None)]
            casts[f.name] = args[0] if args else hints[f.name]
    return casts


# run keys; the manual block and the family knobs are parsed on their own
_RUN_KEYS = _field_casts(RunConfig, skip=("manual", "problem_kwargs"))
# the params=manual block; its p_fail is the run key
_MANUAL_KEYS = _field_casts(HyperParams, skip=("p_fail",))
# every family's knobs, cast to the type of their defaults
_PROBLEM_KEYS = {key: type(default) for name in CATALOG_NAMES
                 for key, default in family_knobs(name).items()}


def _cast(key: str, cast: type, raw: str):
    """The config value ``raw`` of ``key`` cast to ``cast``; one that does
    not cast is an ``InvalidArgument`` naming the key and the value."""
    try:
        return cast(raw)
    except ValueError:
        raise InvalidArgument(f"{key} must be {cast.__name__}, got {raw!r}") from None


def read_pairs(text: str) -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    pairs = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgument(f"bad config line (need key=value): {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        pairs[key] = val
    return pairs


def config_from_pairs(pairs: dict) -> RunConfig:
    """Map run keys to a ``RunConfig``; any key left over is an error."""
    pairs = dict(pairs)
    cfg = RunConfig(**{key: _cast(key, cast, pairs.pop(key))
                       for key, cast in _RUN_KEYS.items() if key in pairs})
    if cfg.params == "manual":
        missing = [key for key in _MANUAL_KEYS if key not in pairs]
        if missing:
            raise InvalidArgument(f"params=manual needs keys {missing}")
        cfg.manual = HyperParams(**{key: _cast(key, cast, pairs.pop(key))
                                    for key, cast in _MANUAL_KEYS.items()},
                                 p_fail=cfg.p_fail)
    for key, cast in _PROBLEM_KEYS.items():
        if key in pairs:
            cfg.problem_kwargs[key] = _cast(key, cast, pairs.pop(key))
    if pairs:
        raise InvalidArgument(f"unknown config keys: {sorted(pairs)}")
    return cfg


def parse_config(text: str) -> RunConfig:
    """One run's config; ``OQN_SEED`` in the environment overrides ``seed``."""
    pairs = read_pairs(text)
    env = os.environ.get("OQN_SEED")
    if env is not None:
        pairs["seed"] = env
    return config_from_pairs(pairs)


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def build_spec(cfg: RunConfig) -> ObjectiveSpec:
    return catalog(cfg.problem, cfg.dim, seed=cfg.problem_seed, **cfg.problem_kwargs)


def run_params(cfg: RunConfig, spec: ObjectiveSpec) -> HyperParams:
    """The config's manual block, else the auto formulas at its budget."""
    if cfg.params == "manual":
        return cfg.manual
    return compute_hyperparams(spec, cfg.budget, cfg.p_fail, cfg.gap_bound)


def gd_params(cfg: RunConfig, spec: ObjectiveSpec) -> GdParams:
    """``budget`` gradient-descent steps of ``step_size``, else of 1/L1."""
    step_size = 1.0 / spec.l1 if cfg.step_size is None else cfg.step_size
    return GdParams(step_size=step_size, steps=cfg.budget)


def _run_driver(method: str):
    """The run function of the driver's ``method``."""
    return lambda spec, params, cfg: driver.run(
        spec, params, RngStream(cfg.seed), audit_level=cfg.audit, method=method,
        eps_target=cfg.eps_target)


# each config method: its params function, params(cfg, spec), and its run
# function, run(spec, params, cfg) -> RunReport
METHODS = {
    "oqn": (run_params, _run_driver("oqn")),
    "og_baseline": (run_params, _run_driver("og")),
    "gd_baseline": (gd_params,
                    lambda spec, params, cfg: driver.run_gd(spec, params, cfg.eps_target)),
}


# --------------------------------------------------------------------------
# brute-force trust-region oracle (test-side; never on the hot path)


BRUTE_TR_DIM_CAP = 20


def brute_tr(a_dense: NDArray, b: NDArray, d_radius: float) -> NDArray:
    """Exact trust-region minimizer by eigendecomposition plus a root solve
    on the boundary multiplier, covering the interior, boundary and
    degenerate (hard) cases.

    The boundary root solve is SciPy's ``brentq``, not ``tr_solve``'s
    secular Newton code, so this stays an independent reference for the
    solver.  ``brentq`` is imported where it is used: no ``oqn`` run or
    command needs ``scipy.optimize``, so importing ``oqn``, ``oqn.harness``,
    ``oqn.verify`` or ``oqn.cli`` never loads it (README: Layout)."""
    a_dense = np.asarray(a_dense, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a_dense.shape[0]
    if d > BRUTE_TR_DIM_CAP:
        raise InvalidArgument(f"brute_tr caps at dim {BRUTE_TR_DIM_CAP}, got {d}")
    evals, evecs = np.linalg.eigh(a_dense)
    bt = evecs.T @ b
    lam_min = evals[0]

    if lam_min > 0:
        y = -bt / evals
        if np.linalg.norm(y) <= d_radius:
            return evecs @ y

    def norm_y(mu: float) -> float:
        return float(np.linalg.norm(bt / (evals + mu)))

    mu_floor = max(0.0, -lam_min)
    # perturb off exact singularity; detect the hard case by the limit norm
    tiny = 1e-14 * max(1.0, float(abs(evals[-1])), float(abs(lam_min)))
    if norm_y(mu_floor + tiny) < d_radius:
        # hard case: pseudo-inverse solution plus a minimum-eigenvector step
        gap = evals - lam_min
        mask = gap > 1e-12 * max(1.0, float(evals[-1] - lam_min))
        y = np.where(mask, -bt / np.where(mask, gap, 1.0), 0.0)
        interior_norm_sq = float(y @ y)
        tau = math.sqrt(max(0.0, d_radius**2 - interior_norm_sq))
        y = y + tau * (np.arange(d) == 0)
        return evecs @ y

    mu_hi = mu_floor + tiny
    while norm_y(mu_hi) >= d_radius:
        mu_hi = 2.0 * mu_hi + float(np.linalg.norm(b)) / d_radius + 1.0
    from scipy.optimize import brentq
    mu_star = brentq(lambda mu: norm_y(mu) - d_radius, mu_floor + tiny, mu_hi,
                     xtol=1e-15, rtol=8.9e-16, maxiter=200)
    y = -bt / (evals + mu_star)
    return evecs @ y


def tr_objective(a_dense: NDArray, b: NDArray, x: NDArray) -> float:
    return 0.5 * float(x @ (a_dense @ x)) + float(b @ x)


# --------------------------------------------------------------------------
# experiment execution and serialization


def csv_rows(report: RunReport) -> list:
    """One CSV row per episode of a run (none for gradient descent); a value
    that was not measured is an empty cell."""
    return [
        f"{ep.k},{ep.grad_norm_at_wbar!r},{ep.episode_regret!r},"
        f"{'' if ep.sum_loss is None else repr(ep.sum_loss)},"
        f"{ep.cum_gradients},{ep.cum_matvecs}"
        for ep in report.episodes
    ]


def run_experiment(cfg: RunConfig) -> RunReport:
    """Execute one configured run through its ``METHODS`` entry and return
    its report."""
    spec = build_spec(cfg)
    params_of, run = METHODS[cfg.method]
    return run(spec, params_of(cfg, spec), cfg)


def to_json(doc: dict) -> str:
    """The text of a report or params document: indented, keys sorted, and
    a NumPy scalar written as its Python value (any other type that JSON
    lacks is a ``TypeError``)."""
    return json.dumps(doc, indent=2, sort_keys=True, default=np.generic.item)


def report_document(cfg: RunConfig, rep: RunReport) -> dict:
    """Deterministic report body of ``cfg``'s run (no wall time; that goes
    to the console)."""
    # every run key but the output paths and the manual block (the report's
    # params); None is the default, for the family knobs the family's own
    doc = {
        "config": {
            **{key: getattr(cfg, key) for key in _RUN_KEYS if not key.startswith("out_")},
            **{key: cfg.problem_kwargs.get(key) for key in _PROBLEM_KEYS},
        },
    }
    doc["params"] = rep.params.document()
    totals = dict(rep.totals)
    totals["tr_stats"] = totals.pop("tr")
    doc["result"] = {
        "grad_norm_final": rep.grad_norm_final,
        "stationary_start": rep.stationary_start,
        "episodes": len(rep.episodes),
        **totals,
    }
    doc["audits"] = rep.audits
    return doc


def write_outputs(cfg: RunConfig, rep: RunReport, doc: dict) -> None:
    """Write the run's CSV rows and the report document ``doc`` to the
    config's output paths, each only when its path is set."""
    if cfg.out_csv:
        with open(cfg.out_csv, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in csv_rows(rep):
                fh.write(row + "\n")
    if cfg.out_report:
        with open(cfg.out_report, "w", encoding="utf-8") as fh:
            fh.write(to_json(doc) + "\n")


# --------------------------------------------------------------------------
# bench grid


_CONFIG_KEYS = {*_RUN_KEYS, *_MANUAL_KEYS, *_PROBLEM_KEYS}
# each key's values when the config gives it in neither form
_BENCH_DEFAULTS = {"dim": ["8"], "audit": ["off"], "budget": ["240", "480", "960"],
                   "seed": ["0", "1", "2"], "method": ["oqn"]}
_CELL_AXES = ("method", "budget", "seed")


def bench(cfg_text: str) -> tuple[list, dict]:
    """Run a grid of ``oqn run`` cells; return its rows and a summary.

    Each key of ``oqn run`` is a one-value axis and ``<key>s=v1,v2,...`` a
    list axis; a config gives one form of a key, and no output path.  The
    cells, each a ``config_from_pairs`` config checked with its spec before
    any cell runs, are the product of the axes: method outermost, then the
    other list axes in config order, budget, and seed innermost.  A
    ``gd_baseline`` cell runs the gradients of the ``oqn`` cell (2M + K + 1).
    The other list axes' values (``axes``) end each row and label the
    medians over seeds and the slopes of log(median) against log(budget).
    """
    axes, lists = {}, []
    for name, raw in read_pairs(cfg_text).items():
        plural = name not in _CONFIG_KEYS and name[:-1] in _CONFIG_KEYS
        key = name[:-1] if plural else name
        if key in axes:
            raise InvalidArgument(f"{key} and {key}s are one key: give one of them")
        if key in ("out_csv", "out_report"):
            raise InvalidArgument(f"{name} is not a bench key: bench prints its rows to stdout")
        axes[key] = [value.strip() for value in raw.split(",")] if plural else [raw]
        lists += [key] if plural else []
    for key, values in _BENCH_DEFAULTS.items():
        axes.setdefault(key, values)
    extra = [key for key in lists if key not in _CELL_AXES]
    order = ["method", *(key for key in axes if key not in _CELL_AXES), "budget", "seed"]
    cells = []
    try:
        for values in itertools.product(*(axes[key] for key in order)):
            cell = dict(zip(order, values))
            cfg = config_from_pairs(cell)
            params = run_params(cfg, build_spec(cfg))
            if cfg.method == "gd_baseline":
                cell["budget"] = str(params.gradient_total)
            cells.append((config_from_pairs(cell), cfg.budget, [cell[key] for key in extra]))
    except InvalidArgument as exc:
        key, _, rest = str(exc).partition(" ")
        raise InvalidArgument(f"{key}s {rest}" if key in lists else str(exc)) from exc
    if len(axes["budget"]) > 1 and any(cfg.params == "manual" for cfg, _, _ in cells):
        raise InvalidArgument("params=manual fixes M = t_len * k_eps, so a grid takes one budget")
    rows, seeds_of = [], {}
    for cfg, budget, values in cells:
        rep = run_experiment(cfg)
        rows.append((cfg.method, budget, cfg.seed, rep.grad_norm_final,
                     rep.totals["gradients"], rep.totals["matvecs"], *values))
        labels = (f"{key}={value}" for key, value in zip(extra, values))
        seeds_of.setdefault((cfg.method, *labels, budget), []).append(rep.grad_norm_final)
    medians = {cell: float(np.median(best)) for cell, best in seeds_of.items()}
    slopes = {}
    for group in dict.fromkeys(cell[:-1] for cell in medians):
        fit = [(cell[-1], m) for cell, m in medians.items() if cell[:-1] == group and m > 0.0]
        if len(fit) >= 2:
            budgets, best = zip(*fit)
            slopes[group] = float(np.polyfit(np.log(budgets), np.log(best), 1)[0])
    return rows, {"axes": extra, "medians": medians, "slopes": slopes}
