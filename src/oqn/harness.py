"""Experiment harness: configs, baselines, brute-force oracles, reports.

The config format is flat key=value text (diff-friendly, no dependencies).
The run keys are ``RunConfig``'s fields, cast to their types, with the
dataclass holding the defaults; ``params=manual`` adds ``HyperParams``'
fields.  Reports are JSON-shaped structured text whose content is a pure
function of (config, seed); wall time is echoed to the console but kept out
of the files so reruns are bit-identical.  A report's ``params`` block is
``params_document`` and its ``result`` block holds the driver's totals
(``driver.new_totals``) as they are.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, get_args, get_type_hints

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import brentq

from . import driver
from .driver import HyperParams, RunReport, compute_hyperparams
from .errors import InvalidArgument
from .linops import Counter
from .problems import CATALOG_NAMES, ObjectiveSpec, catalog, eval_gradient, family_knobs
from .rng import RngStream, check_seed

METHODS = ("oqn", "og_baseline", "gd_baseline")

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
        if self.method not in METHODS:
            raise InvalidArgument(f"method must be one of {METHODS}, got {self.method!r}")
        if self.audit not in driver.AUDIT_LEVELS:
            raise InvalidArgument(f"audit must be one of {driver.AUDIT_LEVELS}")
        if self.params not in ("auto", "manual"):
            raise InvalidArgument("params must be 'auto' or 'manual'")
        for key in ("seed", "problem_seed"):
            check_seed(getattr(self, key), key)
        driver.check_eps_target(self.eps_target)


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


# --------------------------------------------------------------------------
# baselines


@dataclass
class GdReport:
    grad_norms: list
    x_final: NDArray
    gradients: int


def gd_step_size(spec: ObjectiveSpec, step_size: Optional[float] = None) -> float:
    """The step ``baseline_gd`` takes: ``step_size``, else 1/L1."""
    if step_size is None:
        step_size = 1.0 / spec.l1
    if not 0.0 < step_size < math.inf:
        raise InvalidArgument("step_size must be positive and finite")
    return step_size


def baseline_gd(spec: ObjectiveSpec, steps: int, step_size: Optional[float] = None) -> GdReport:
    """Plain gradient descent with step 1/L1: the standard comparator."""
    step_size = gd_step_size(spec, step_size)
    counter = Counter()
    x = spec.x0.copy()
    norms = []
    for _ in range(steps):
        g = eval_gradient(spec, x, counter)
        norms.append(float(np.linalg.norm(g)))
        x = x - step_size * g
    return GdReport(grad_norms=norms, x_final=x, gradients=counter.count)


# --------------------------------------------------------------------------
# brute-force trust-region oracle (test-side; never on the hot path)


BRUTE_TR_DIM_CAP = 20


def brute_tr(a_dense: NDArray, b: NDArray, d_radius: float) -> NDArray:
    """Exact trust-region minimizer by eigendecomposition plus a root solve
    on the boundary multiplier, covering the interior, boundary and
    degenerate (hard) cases."""
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
    mu_star = brentq(lambda mu: norm_y(mu) - d_radius, mu_floor + tiny, mu_hi,
                     xtol=1e-15, rtol=8.9e-16, maxiter=200)
    y = -bt / (evals + mu_star)
    return evecs @ y


def tr_objective(a_dense: NDArray, b: NDArray, x: NDArray) -> float:
    return 0.5 * float(x @ (a_dense @ x)) + float(b @ x)


# --------------------------------------------------------------------------
# experiment execution and serialization


@dataclass
class ExperimentReport:
    config: RunConfig
    report: object
    wall_time_s: float
    csv_rows: list


def _csv_rows_from_report(report: RunReport) -> list:
    return [
        f"{ep.k},{ep.grad_norm_at_wbar!r},{ep.episode_regret!r},"
        f"{ep.sum_loss!r},{ep.cum_gradients},{ep.cum_matvecs}"
        for ep in report.episodes
    ]


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    """Execute one configured run and assemble its CSV rows and report."""
    import time

    spec = build_spec(cfg)
    t0 = time.perf_counter()
    if cfg.method == "gd_baseline":
        gd = baseline_gd(spec, cfg.budget, cfg.step_size)
        wall = time.perf_counter() - t0
        rows = [f"{i + 1},{g!r},,,{i + 1},0" for i, g in enumerate(gd.grad_norms)]
        return ExperimentReport(config=cfg, report=gd, wall_time_s=wall, csv_rows=rows)
    params = run_params(cfg, spec)
    rng = RngStream(cfg.seed)
    method = "og" if cfg.method == "og_baseline" else "oqn"
    report = driver.run(spec, params, rng, audit_level=cfg.audit, method=method,
                        eps_target=cfg.eps_target)
    wall = time.perf_counter() - t0
    return ExperimentReport(config=cfg, report=report, wall_time_s=wall,
                            csv_rows=_csv_rows_from_report(report))


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def params_document(params: HyperParams) -> dict:
    """The hyperparameters a run uses: every ``HyperParams`` field and M."""
    return {**asdict(params), "m_total": params.m_total}


def report_document(exp: ExperimentReport) -> dict:
    """Deterministic report body (no wall time; that goes to the console)."""
    cfg = exp.config
    # every run key but the output paths and the manual block (the report's
    # params); None is the default, for the family knobs the family's own
    doc = {
        "config": {
            **{key: getattr(cfg, key) for key in _RUN_KEYS if not key.startswith("out_")},
            **{key: cfg.problem_kwargs.get(key) for key in _PROBLEM_KEYS},
        },
    }
    rep = exp.report
    if isinstance(rep, GdReport):
        doc["result"] = {
            "grad_norm_final": rep.grad_norms[-1] if rep.grad_norms else None,
            "gradients": rep.gradients,
        }
        return _jsonable(doc)
    doc["params"] = params_document(rep.params)
    totals = dict(rep.totals)
    totals["tr_stats"] = totals.pop("tr")
    doc["result"] = {
        "grad_norm_final": rep.grad_norm_final,
        "stationary_start": rep.stationary_start,
        "episodes": len(rep.episodes),
        **totals,
    }
    doc["audits"] = rep.audits
    return _jsonable(doc)


def write_outputs(exp: ExperimentReport, doc: dict) -> None:
    """Write the CSV rows and the report document ``doc`` to the config's
    output paths, each only when its path is set."""
    cfg = exp.config
    if cfg.out_csv:
        with open(cfg.out_csv, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in exp.csv_rows:
                fh.write(row + "\n")
    if cfg.out_report:
        with open(cfg.out_report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


# --------------------------------------------------------------------------
# bench grid


_BENCH_DEFAULTS = {"dim": "8", "audit": "off", "budgets": "240,480,960",
                   "seeds": "0,1,2", "methods": "oqn"}
# run keys that every cell sets itself or never uses, and what to write instead
_BENCH_REJECTED = {
    "budget": "use budgets=", "seed": "use seeds=", "method": "use methods=",
    "out_csv": "bench prints its rows to stdout",
    "out_report": "bench prints its rows to stdout",
}


def bench(cfg_text: str) -> tuple[list, dict]:
    """Grid over methods x budgets x seeds; returns rows and fitted slopes.

    The config holds the run keys of ``parse_config`` plus ``budgets``,
    ``seeds`` and ``methods`` (comma lists).  Each cell is the shared run
    config with its own method, budget and seed, an isolated stream and
    counters.  A ``gd_baseline`` cell takes as many steps as the gradients
    an ``oqn`` cell of the same budget spends (2M + K + 1).  Slope =
    least-squares fit of log(best grad norm) vs log(budget), per method,
    over the budgets whose median over seeds is positive; a method with
    fewer than two such budgets gets no slope.  Manual parameters fix
    M = t_len * k_eps whatever the budget, so they allow one budget only.
    """
    pairs = {**_BENCH_DEFAULTS, **read_pairs(cfg_text)}
    for key, hint in _BENCH_REJECTED.items():
        if key in pairs:
            raise InvalidArgument(f"{key} is not a bench key: {hint}")
    budgets = [_cast("budgets", int, s) for s in pairs.pop("budgets").split(",")]
    seeds = [_cast("seeds", int, s) for s in pairs.pop("seeds").split(",")]
    methods = [s.strip() for s in pairs.pop("methods").split(",")]
    base = config_from_pairs(pairs)
    if base.params == "manual" and len(budgets) > 1:
        raise InvalidArgument("params=manual fixes M = t_len * k_eps, so every budget "
                         "would repeat one run: give one budget")
    spec = build_spec(base)

    rows = []
    best = {}
    for method in methods:
        for budget in budgets:
            steps = budget
            if method == "gd_baseline":
                params = run_params(replace(base, budget=budget), spec)
                steps = params.gradient_total
            per_seed = []
            for seed in seeds:
                exp = run_experiment(replace(base, method=method, budget=steps, seed=seed))
                rep = exp.report
                if isinstance(rep, GdReport):
                    val = min(rep.grad_norms)
                    grads = rep.gradients
                    mvs = 0
                else:
                    val = rep.grad_norm_final
                    grads = rep.totals["gradients"]
                    mvs = rep.totals["matvecs"]
                per_seed.append(val)
                rows.append((method, budget, seed, val, grads, mvs))
            best[(method, budget)] = float(np.median(per_seed))
    slopes = {}
    for method in methods:
        fit = [b for b in budgets if best[(method, b)] > 0.0]
        if len(fit) >= 2:
            ys = np.log([best[(method, b)] for b in fit])
            slopes[method] = float(np.polyfit(np.log(fit), ys, 1)[0])
    return rows, {"medians": best, "slopes": slopes}
