"""Optimistic quasi-Newton optimization with matrix-free oracles and
runtime auditing of the inequalities its guarantees rest on."""

from .driver import (
    EpisodeRecord,
    HyperParams,
    RunReport,
    audit_regret,
    compute_hyperparams,
    run,
)
from .errors import OqnError
from .hessian_learner import LearnerState, default_rho
from .linops import Counter, SymOperator
from .problems import ObjectiveSpec, catalog, eval_gradient
from .rng import RngStream
from .trsolver import TrustRegionSubproblem, TRSolution, tr_solve

__all__ = [
    "Counter",
    "EpisodeRecord",
    "HyperParams",
    "LearnerState",
    "ObjectiveSpec",
    "OqnError",
    "RngStream",
    "RunReport",
    "SymOperator",
    "TRSolution",
    "TrustRegionSubproblem",
    "audit_regret",
    "catalog",
    "compute_hyperparams",
    "default_rho",
    "eval_gradient",
    "run",
    "tr_solve",
]

__version__ = "0.1.0"
