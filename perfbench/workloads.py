"""Workloads of the oqn benchmark: inputs made from a seed, one op per input,
and an independent check of every op's output.

An op is one ``oqn.run`` (driver workloads) or one ``oqn.tr_solve``
(``tr_indefinite``).  Inputs come in batches; batch ``k`` of a seed is the
same whatever else the run does, so two runs with one seed see the same ops
in the same order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

import oqn
from oqn import harness
from oqn.trsolver import residual_of

# What an op may raise instead of returning; the run counts it as failed.
# ``oqn.run`` raises AssertionError when its gradient accounting breaks.
OP_FAILURES = (oqn.OqnError, AssertionError)

# name -> (catalog problem, dimension, requested budget, audit level)
DRIVER_WORKLOADS = {
    "lowdim": ("coupled_trig", 16, 480, "off"),
    "highdim": ("cosine_mixture", 256, 120, "off"),
    "audited": ("cosine_mixture", 128, 480, "full"),
}

# tr_indefinite: one solve per cell per batch, so every batch has the same mix
# of branches and iteration budgets.  "indefinite" solves end on the sphere
# (regularized_boundary), "hard" puts b orthogonal to the bottom eigenvector
# with a small norm (regularized_interior), "psd_shifted" is mostly certified
# convex.  d <= 20 keeps harness.brute_tr applicable.
TR_KINDS = ("indefinite", "hard", "psd_shifted")
TR_DIMS = (10, 20)
TR_RADII = (0.1, 1.0, 10.0)
TR_DELTAS = (1e-2, 1e-4)
TR_CELLS = [(kind, d, radius, delta) for kind in TR_KINDS for d in TR_DIMS
            for radius in TR_RADII for delta in TR_DELTAS]
TR_Q = 0.01
# tolerances of the independent checks, as in oqn's own verify suite
BALL_RTOL = 1e-12
EXCESS_ATOL = 1e-9


def _seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


class DriverWorkload:
    """Repeated full optimizer runs on one catalog problem; each op draws a
    fresh oracle seed."""

    op_name = "driver.run"
    root_outcome = None

    def __init__(self, name: str, seed: int):
        problem, dim, budget, audit = DRIVER_WORKLOADS[name]
        self.seed, self.audit, self.reference_dim = seed, audit, dim
        self.spec = oqn.catalog(problem, dim)
        self.params = oqn.compute_hyperparams(self.spec, budget)
        p = self.params
        self.budget = {"requested": budget, "m_total": p.m_total,
                       "t_len": p.t_len, "k_eps": p.k_eps}
        self.description = (
            f"{problem} d={dim}, audit={audit}, budget {budget} -> m_total "
            f"{p.m_total} (t_len {p.t_len} x k_eps {p.k_eps})")

    def batch(self, k: int) -> list:
        return [_seed_of(np.random.default_rng([self.seed, k]))]

    def call(self, op_seed: int):
        return oqn.run(self.spec, self.params, oqn.RngStream(op_seed),
                       audit_level=self.audit)

    def check(self, op_seed: int, report) -> dict:
        rec = {"seed": op_seed, **self.budget}
        if isinstance(report, BaseException):
            return {**rec, "ok": False, "error": type(report).__name__}
        p = self.params
        expected = 2 * p.m_total + p.k_eps + 1
        gradients = report.totals["gradients"]
        errors = []
        if gradients != expected:
            errors.append(f"gradients {gradients} != 2M+K+1 = {expected}")
        if not math.isfinite(report.grad_norm_final):
            errors.append("grad_norm_final not finite")
        if self.audit == "full" and not report.audits.get("all_ok", False):
            failed = sorted(k for k, v in report.audits.items()
                            if k.endswith("_ok") and not v)
            errors.append(f"audits failed: {failed}")
        return {**rec, "ok": not errors, "error": "; ".join(errors) or None,
                "matvecs": report.totals["matvecs"], "gradients": gradients,
                "branches": dict(sorted(report.totals["tr"]["branches"].items())),
                "grad_norm": report.grad_norm_final}


class TrWorkload:
    """Direct trust-region solves on generated subproblems, each checked
    against the exact solution from ``harness.brute_tr``."""

    op_name = "trsolver.tr_solve"
    reference_dim = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.description = (
            f"{len(TR_CELLS)} solves per batch: kinds {'/'.join(TR_KINDS)}, "
            f"d in {TR_DIMS}, radius in {TR_RADII}, delta in {TR_DELTAS}")

    @staticmethod
    def root_outcome(tracer, sol, args):
        tracer.record_solve(sol, args[0]["problem"].delta)

    def batch(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        return [self._instance(rng, *cell) for cell in TR_CELLS]

    @staticmethod
    def _instance(rng, kind, d, radius, delta) -> dict:
        m = rng.uniform(-1.0, 1.0, size=(d, d))
        a = np.tril(m) + np.tril(m, -1).T
        if kind == "psd_shifted":
            a += (0.1 - np.linalg.eigvalsh(a)[0]) * np.eye(d)
        a *= math.sqrt(d) / np.linalg.norm(a)
        b = rng.standard_normal(d)
        if kind == "hard":
            evals, evecs = np.linalg.eigh(a)
            b -= (evecs[:, 0] @ b) * evecs[:, 0]
            b *= 0.1 * radius * (evals[1] - evals[0]) / np.linalg.norm(b)
        else:
            b *= 2.0 / np.linalg.norm(b)
        op = oqn.SymOperator(a, oqn.Counter())
        problem = oqn.TrustRegionSubproblem(
            a_op=op, b=b, radius=radius, delta=delta, q=TR_Q,
            b_bound=2.0 * op.frobenius_norm())
        return {"cell": f"{kind}/d{d}/r{radius:g}/delta{delta:g}",
                "problem": problem, "seed": _seed_of(rng)}

    def call(self, inp: dict):
        return oqn.tr_solve(inp["problem"], oqn.RngStream(inp["seed"]))

    def check(self, inp: dict, sol) -> dict:
        rec = {"cell": inp["cell"], "seed": inp["seed"]}
        if isinstance(sol, BaseException):
            return {**rec, "ok": False, "error": type(sol).__name__}
        p = inp["problem"]
        a, b, radius, delta = p.a_op.dense(), p.b, p.radius, p.delta
        x = sol.delta_vec
        errors = []
        norm = float(np.linalg.norm(x))
        if norm > radius * (1.0 + BALL_RTOL):
            errors.append(f"|x| = {norm!r} > radius {radius!r}")
            residual = math.inf
        else:
            residual = residual_of(oqn.SymOperator(a, oqn.Counter()), b, radius, x)
        if not residual <= delta:
            errors.append(f"residual {residual!r} > delta {delta!r}")
        exact = harness.brute_tr(a, b, radius)
        gap = harness.tr_objective(a, b, x) - harness.tr_objective(a, b, exact)
        if gap > delta * radius + EXCESS_ATOL:
            errors.append(f"excess {gap!r} > delta*radius {delta * radius!r}")
        return {**rec, "ok": not errors, "error": "; ".join(errors) or None,
                "matvecs": sol.matvecs_used, "branch": sol.branch.value,
                "retried": sol.retried, "residual": residual,
                "grad_norm": float(np.linalg.norm(a @ x + b)),
                "tr_excess": gap / (delta * radius)}


def make_reference(dim: int):
    """The fixed work that op times are divided by.

    Two steps of a miniature optimizer loop at the workload's dimension,
    with the operation mix of an oqn step but none of its code: a gradient,
    five symmetric operator builds with a symmetry check, a two-step Lanczos
    factorization and tridiagonal eigensolve, 30 projected accelerated
    iterations, and a rank-two matrix update with a Frobenius projection.
    Then a sum over 4 MB, half of an 8 MB buffer, for the share of an op's
    time that waits on memory.  Sharing the mix makes the kernel slow down
    and speed up with the machine the way the ops do; sharing no code keeps
    a faster oqn visible as a lower cost.
    """
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(dim)
    m = rng.standard_normal((dim, dim))
    w0 = (m + m.T) / math.sqrt(dim)
    eye = np.eye(dim)

    def step(x, w):
        g = np.sin(x) + 0.1 * x
        ops = []
        for mat in (w, 0.5 * w + 4.0 * eye, w, w, w):
            if np.linalg.norm(mat - mat.T) > 1e-10 * (np.linalg.norm(mat) or 1.0):
                raise ValueError("reference matrix lost its symmetry")
            ops.append(0.5 * (mat + mat.T))
        a = ops[1]
        basis, alphas, betas = [g / np.linalg.norm(g)], [], []
        for _ in range(2):
            v = a @ basis[-1]
            alphas.append(float(v @ basis[-1]))
            q = np.column_stack(basis)
            v = v - q @ (q.T @ v)
            betas.append(float(np.linalg.norm(v)))
            basis.append(v / betas[-1])
        eigh_tridiagonal(np.array(alphas), np.array(betas[:-1]))
        y = z = np.zeros(dim)
        t = 1.0
        for _ in range(30):
            u = y - (a @ y + g) / 8.0
            norm = np.linalg.norm(u)
            u = u if norm <= 0.1 else u * (0.1 / norm)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = u + ((t - 1.0) / t_next) * (u - z)
            z, t = u, t_next
        r = g - ops[0] @ z
        w = w - 0.01 * (np.outer(r, z) + np.outer(z, r))
        return x + z, w * min(1.0, dim / max(np.linalg.norm(w), 1e-300))

    buffer = np.ones(1_000_000)
    halves = itertools.cycle((buffer[:500_000], buffer[500_000:]))

    def reference() -> None:
        x, w = x0, w0
        for _ in range(2):
            x, w = step(x, w)
        float(next(halves).sum())

    return reference


def make_workload(name: str, seed: int):
    if name in DRIVER_WORKLOADS:
        return DriverWorkload(name, seed)
    return TrWorkload(seed)
