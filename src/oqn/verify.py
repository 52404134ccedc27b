"""Property batteries behind `oqn verify`: each check re-derives an invariant
with an independent oracle (dense eigensolvers, finite differences, exact
KKT solves) and reports a pass flag plus the observed margin.

Each battery draws from a fixed generator of its own, so it runs alone.  The
oracle contract batteries ``check_trsolver``, ``check_minevec``,
``check_sep`` and ``check_problems`` are the only implementation of those
checks: the tests run them at ``--level quick``, and acceptance criteria 1,
2, 3 and 9 at ``--level full``, which draws exactly those instances."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy
from scipy.linalg import eigh_tridiagonal

from . import driver, harness
from .eig import (MinEvecCase, SepCase, lanczos_factorize, min_evec, sep, sep_budget,
                  tridiagonal_eigh)
from .errors import OqnError, check_one_of
from .hessian_learner import LearnerState, default_rho, learner_step
from .linops import FRO_BOUND_RTOL, Counter, SymOperator, dense_extreme_eig, upper_frobenius
from .problems import (CATALOG_NAMES, catalog, fd_check_gradient, fd_check_hessian,
                       hess_form_rtol)
from .rng import RngStream
from .trsolver import (EARLY_EXIT_RTOL, TrustRegionSubproblem, krylov_minimizer, residual_of,
                       tr_solve)

SCALES = {
    "quick": dict(pairs=150, fd_points=20, trials=150, tr_instances=60,
                  learner_samples=150, run_dim=4, run_budget=120),
    "full": dict(pairs=1000, fd_points=100, trials=1000, tr_instances=500,
                 learner_samples=1000, run_dim=10, run_budget=1000),
}

SEED = 20240  # for the draws with no acceptance counterpart

# |A|_F held by a SymOperator against np.linalg.norm of its dense matrix:
# the two sums round in different orders, so they agree only to rounding,
# well under 1e-12 relative at any d the batteries and tests build
FRO_RTOL = 1e-12

# a start product the driver derived by the learner's rank-two update
# against a dense one: the update adds two rounded terms per round along a
# chain of plain rounds, measured at a few 1e-15 over whole runs
START_PRODUCT_RTOL = 1e-13

# x_K from a full Krylov space against brute_tr's optimum of the same model:
# the model is only (delta'/2)-strongly convex, so rounding moves the point
# by up to a few 1e-11 D on the instances drawn, while its value agrees to a
# few 1e-16 of |b| D + b_bound D^2
KRYLOV_XTOL = 1e-8
KRYLOV_VALUE_RTOL = 1e-12

# a full Lanczos factorization at d = 200 with full reorthogonalization:
# max |V'V - I| measured 1.3e-15 (|V'V - I|_F 7e-15), and the largest column
# of A V - V T - beta_{k+1} v_{k+1} e_k' 6e-17 |A|_F.  The recurrence bound
# sits above the 1e-12 |A|_F that an unwritten v_{k+1} may leave at breakdown
LANCZOS_ORTH_TOL = 1e-12
LANCZOS_RECURRENCE_RTOL = 1e-10

# min_evec's stage-2 vector against V z, z the bottom eigenvector of the dense
# squared-shift matrix M from np.linalg.eigh, compared up to sign where M's
# two lowest eigenvalues lie at least REFINED_GAP_RTOL |M|_2 apart: there
# either solver's rounding moves z by about eps |M|_2 / gap, at most 1e-10.
# After a stage-1 breakdown, the vector against A's bottom eigenvector from
# np.linalg.eigh, with the same gap rule on A's spectrum
REFINED_GAP_RTOL = 1e-6
REFINED_VECTOR_TOL = 1e-8

# dimensions of the stacked-gradient check: multiples of 8 and their
# neighbours, where a SIMD loop over the stack splits unlike one over a row
GRAD_ROWS_DIMS = (2, 3, 7, 8, 9, 16, 31, 33, 129, 256)
GRAD_ROWS_STACK = 3

# dimensions of the structured-Hessian check, and the offset of its near
# points: there a norm of a difference taken as a difference of squared
# norms would cancel to about 1e-8 of |H|_F, far above hess_form_rtol
HESS_FORM_DIMS = (2, 3, 8, 33, 128)
HESS_FORM_NEAR = 1e-8


def random_symmetric(rng, d, scale=1.0):
    """Symmetric matrix with lower-triangle entries U(-scale, scale)."""
    m = rng.uniform(-scale, scale, size=(d, d))
    return np.tril(m) + np.tril(m, -1).T


def hard_case_b(a, b, radius):
    """``b`` turned into a trust-region hard case for ``a``: orthogonal to
    the bottom eigenvector, with norm 0.1 * radius * (lambda_2 - lambda_1)."""
    evals, evecs = np.linalg.eigh(a)
    b = b - (evecs[:, 0] @ b) * evecs[:, 0]
    return b * (0.1 * radius * (evals[1] - evals[0]) / np.linalg.norm(b))


def triangle_ok(op: SymOperator) -> bool:
    """``op`` keeps the ``SymOperator`` layout: a Fortran-ordered upper
    triangle with a zero strict lower part, whose held Frobenius norm is its
    dense matrix's within FRO_RTOL."""
    upper = op.upper
    dense_norm = float(np.linalg.norm(op.dense()))
    return (upper.flags.f_contiguous and not np.tril(upper, -1).any()
            and abs(op.frobenius_norm() - dense_norm) <= FRO_RTOL * dense_norm)


@dataclasses.dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_all(level: str = "quick") -> list:
    """Execute the per-module property batteries at the requested scale.  A
    battery that raises a package error, an assertion or an arithmetic
    error (the dense oracle's self-check) yields one failed check
    ``<layer>.raised`` in place of its own, and the others still run."""
    check_one_of("level", level, tuple(SCALES))
    cfg = SCALES[level]
    out = []
    for layer, battery in BATTERIES:
        try:
            out += battery(cfg)
        except (OqnError, AssertionError, ArithmeticError) as exc:
            out.append(CheckResult(f"{layer}.raised", False, f"{type(exc).__name__}: {exc}"))
    return out


def check_problems(cfg):
    """Finite differences against each catalog oracle, and its L1 and L2;
    then the stacked gradient of each family that declares rows."""
    fd_rng = np.random.default_rng(9009)
    pair_rng = np.random.default_rng(SEED)
    out = []
    for name in CATALOG_NAMES:
        spec = catalog(name, 6, seed=11)
        lo, hi = (-spec.box, spec.box) if spec.box else (-3.0, 3.0)
        worst_g = worst_h = 0.0
        for _ in range(cfg["fd_points"]):
            x = fd_rng.uniform(lo, hi, size=6)
            worst_g = max(worst_g, fd_check_gradient(spec, x))
            worst_h = max(worst_h, fd_check_hessian(spec, x))
        out.append(CheckResult(
            f"problems.fd.{name}", worst_g <= 1e-6 and worst_h <= 1e-4,
            f"grad_err={worst_g:.2e} hess_err={worst_h:.2e}"))
        viol = 0.0
        for _ in range(cfg["pairs"]):
            x = pair_rng.uniform(lo, hi, size=6)
            y = pair_rng.uniform(lo, hi, size=6)
            dist = np.linalg.norm(x - y)
            if dist == 0:
                continue
            gd = np.linalg.norm(spec.grad(x) - spec.grad(y))
            hd = np.linalg.norm(spec.hess_at(x).dense() - spec.hess_at(y).dense(), ord=2)
            viol = max(viol, gd - spec.l1 * dist, hd - spec.l2 * dist)
        out.append(CheckResult(
            f"problems.lipschitz.{name}", viol <= 1e-9, f"violation={viol:.2e}"))
    out.append(_check_grad_rows(cfg))
    out.append(_check_structured_hessian(cfg))
    return out


def _check_grad_rows(cfg):
    """Every family that declares ``grad_rows``: the gradient of a stack,
    one call, equals its rows' single calls bit for bit."""
    rng = np.random.default_rng(SEED)
    declared, mismatched = [], []
    stacks = cfg["pairs"] // 10
    for name in CATALOG_NAMES:
        if not catalog(name, 2, seed=11).grad_rows:
            continue
        declared.append(name)
        for d in GRAD_ROWS_DIMS:
            spec = catalog(name, d, seed=11)
            lo, hi = (-spec.box, spec.box) if spec.box else (-3.0, 3.0)
            for _ in range(stacks):
                points = rng.uniform(lo, hi, size=(GRAD_ROWS_STACK, d))
                stacked = np.asarray(spec.grad(points), dtype=float)
                single = [np.asarray(spec.grad(row.copy()), dtype=float) for row in points]
                if stacked.tobytes() != b"".join(g.tobytes() for g in single):
                    mismatched.append(f"{name}@{d}")
                    break
    return CheckResult(
        "problems.grad_rows", bool(declared) and not mismatched,
        f"families={','.join(declared)} dims={len(GRAD_ROWS_DIMS)} stacks={stacks} "
        f"mismatched={','.join(mismatched) or 'none'}")


def _check_structured_hessian(cfg):
    """Every family: at random points x, its ``hess_at`` form's ``matvec``,
    ``fro()`` and ``fro(other)``, other at a random point and at a point
    near x, against dense linear algebra on ``dense()``, within
    ``hess_form_rtol``.  The detail is the worst error over that bound."""
    rng = np.random.default_rng(SEED)
    worst, failed = 0.0, []
    points = cfg["pairs"] // 30
    for name in CATALOG_NAMES:
        for d in HESS_FORM_DIMS:
            spec = catalog(name, d, seed=11)
            lo, hi = (-spec.box, spec.box) if spec.box else (-3.0, 3.0)
            tol = hess_form_rtol(d)
            for _ in range(points):
                x, far, v = rng.uniform(lo, hi, size=(3, d))
                near = x + HESS_FORM_NEAR * rng.standard_normal(d)
                form = spec.hess_at(x)
                h = form.dense()
                h_fro = np.linalg.norm(h)
                errs = [np.linalg.norm(form.matvec(v) - h @ v) / (h_fro * np.linalg.norm(v)),
                        abs(form.fro() - h_fro) / h_fro]
                for z in (far, near):
                    other = spec.hess_at(z)
                    g = other.dense()
                    errs.append(abs(form.fro(other) - np.linalg.norm(h - g))
                                / (h_fro + np.linalg.norm(g)))
                ratio = max(errs) / tol
                worst = max(worst, ratio)
                if not ratio <= 1.0:
                    failed.append(f"{name}@{d}")
                    break
    return CheckResult(
        "problems.structured_hessian", not failed,
        f"families={','.join(CATALOG_NAMES)} dims={len(HESS_FORM_DIMS)} points={points} "
        f"worst={worst:.2f} failed={','.join(failed) or 'none'}")


def check_linops(cfg):
    rng = np.random.default_rng(SEED)
    out = []
    d = 20
    counter = Counter()
    a = random_symmetric(rng, d)
    op = SymOperator(a, counter)
    # the checked build keeps an exactly symmetric input's bits
    out.append(CheckResult(
        "linops.triangle_layout", triangle_ok(op) and np.array_equal(op.dense(), a)))
    for _ in range(7):
        op.apply(rng.standard_normal(d))
    out.append(CheckResult(
        "linops.counter", counter.count == 7, f"count={counter.count}"))
    lam, scale, shift = 0.7, -2.0, 0.3
    base_min, base_max, _, _ = dense_extreme_eig(op)
    sh_min, sh_max, _, _ = dense_extreme_eig(op.shifted(lam))
    # a view of a view is one view, scale (A - lam I) - shift I; the negative
    # scale swaps the ends of the spectrum
    co_min, co_max, _, _ = dense_extreme_eig(op.shifted(lam).shifted(shift, scale))
    err = max(abs(sh_min - (base_min - lam)), abs(sh_max - (base_max - lam)),
              abs(co_min - (scale * (base_max - lam) - shift)),
              abs(co_max - (scale * (base_min - lam) - shift)))
    out.append(CheckResult(
        "linops.shifted_spectrum", err <= 1e-9, f"err={err:.2e}"))
    return out


def check_lanczos(cfg):
    """A full factorization at d = 200 keeps its basis orthonormal and its
    three-term recurrence A V = V T + beta_{k+1} v_{k+1} e_k'."""
    rng = np.random.default_rng(SEED)
    d = 200
    a = random_symmetric(rng, d)
    op = SymOperator(a, Counter())
    fact = lanczos_factorize(op, RngStream(SEED).unit_vector(d), d)
    v, k = fact.basis_matrix(), fact.size
    orth = float(np.max(np.abs(v.T @ v - np.eye(k))))
    diag, off = fact.tridiagonal()
    resid = a @ v - v @ (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    if fact.breakdown_at is None:
        resid[:, -1] -= fact.betas[-1] * fact.basis[k]
    rec = float(np.max(np.linalg.norm(resid, axis=0))) / op.frobenius_norm()
    return [CheckResult(
        "eig.lanczos_orthogonality", orth <= LANCZOS_ORTH_TOL and rec <= LANCZOS_RECURRENCE_RTOL,
        f"steps={k} orth={orth:.1e} recurrence={rec:.1e}")]


def check_tridiagonal(cfg):
    """``tridiagonal_eigh`` binds the f2py ``?stevd`` signature of the
    installed SciPy directly, so it is held to the bits of SciPy's own
    ``eigh_tridiagonal`` with the ``stevd`` driver, values and vectors, at
    k = 1..20, one tridiagonal with a zero off-diagonal entry."""
    rng = np.random.default_rng(SEED)
    mismatched = []
    for k in range(1, 21):
        diag, off = rng.standard_normal(k), np.abs(rng.standard_normal(k - 1))
        if k == 10:
            off[4] = 0.0  # T splits into two blocks
        ref = eigh_tridiagonal(diag, off, lapack_driver="stevd")
        evals, evecs = tridiagonal_eigh(diag, off)
        if not (np.array_equal(evals, ref[0]) and np.array_equal(evecs, ref[1])):
            mismatched.append(f"k={k}")
    return [CheckResult("eig.tridiagonal_lapack", not mismatched,
                        f"scipy {scipy.__version__}: "
                        f"mismatched={','.join(mismatched) or 'none'} of 20 solves")]


def _dense_refined_vector(fact, lambda_hat):
    """Stage 2 of ``min_evec`` redone densely on its factorization ``fact``:
    V z with z the bottom eigenvector of M = (T - lambda_hat I)^2 +
    beta_{k+1}^2 e_k e_k' from ``np.linalg.eigh``.  Returns the unit vector
    and M's relative gap (mu_2 - mu_1) / mu_max, 1 when k = 1."""
    diag, off = fact.tridiagonal()
    k = diag.size
    shifted = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) - lambda_hat * np.eye(k)
    m_mat = shifted @ shifted
    m_mat[k - 1, k - 1] += fact.betas[-1] ** 2
    mu, z = np.linalg.eigh(m_mat)
    v = fact.basis_matrix() @ z[:, 0]
    return v / np.linalg.norm(v), (1.0 if k == 1 else (mu[1] - mu[0]) / mu[-1])


def _sign_free_distance(v, ref) -> float:
    """min |v -+ ref|: the distance between two unit vectors up to sign."""
    return float(min(np.linalg.norm(v - ref), np.linalg.norm(v + ref)))


def check_minevec(cfg):
    """The eigenvalue sandwich at q = 0.05, the certificate residual, the
    top Ritz value inside the spectrum, stage 2's refined vector against a
    dense eigensolve of its squared-shift matrix, and, where stage 1 broke
    down and stage 2 did not run, the bottom Ritz vector against a dense
    eigensolve of A."""
    rng = np.random.default_rng(2002)
    sandwich_hits = 0
    negative = 0
    resid_ok = True
    budget_ok = True
    ritz_ok = True
    gapped = 0
    worst_vector = 0.0
    breakdowns = breakdowns_gapped = 0
    worst_breakdown = 0.0
    n_trials = cfg["trials"]
    for t in range(n_trials):
        d = int(rng.integers(2, 41))
        a = random_symmetric(rng, d, scale=float(rng.uniform(0.3, 3.0)))
        op = SymOperator(a, Counter())
        lam_min, lam_max, _, _ = dense_extreme_eig(op)
        spread = max(lam_max - lam_min, 1e-9)
        delta = float(rng.uniform(0.02, 0.6)) * spread
        seed = 7_700_000 + t
        res = min_evec(op, delta, 0.05, spread, RngStream(seed))
        if res.lambda_hat <= lam_min <= res.lambda_hat + delta:
            sandwich_hits += 1
        if res.case is MinEvecCase.NEGATIVE_EIG:
            negative += 1
            resid = np.linalg.norm(a @ res.v_hat - res.lambda_hat * res.v_hat)
            resid_ok = (resid_ok and resid <= delta
                        and abs(np.linalg.norm(res.v_hat) - 1.0) <= 1e-8)
            # the factorization replayed to the probe's matvecs (one
            # extension computes the same rows as two): stage 1 broke down
            # where it stops at stage 1's size
            fact = lanczos_factorize(SymOperator(a, Counter()), RngStream(seed).unit_vector(d),
                                     res.matvecs_used)
            if fact.breakdown_at == res.basis.shape[1]:
                breakdowns += 1
                evals, evecs = np.linalg.eigh(a)
                if evals[1] - evals[0] >= REFINED_GAP_RTOL * np.max(np.abs(evals)):
                    breakdowns_gapped += 1
                    worst_breakdown = max(worst_breakdown,
                                          _sign_free_distance(res.v_hat, evecs[:, 0]))
                continue
            v_ref, gap = _dense_refined_vector(fact, res.lambda_hat)
            if gap >= REFINED_GAP_RTOL:
                gapped += 1
                worst_vector = max(worst_vector, _sign_free_distance(res.v_hat, v_ref))
        budget_ok = budget_ok and res.matvecs_used <= d
        ritz_ok = (ritz_ok
                   and lam_min <= res.ritz_max <= lam_max + 1e-9 * op.frobenius_norm())
    frac = sandwich_hits / n_trials
    return [
        CheckResult("eig.minevec.sandwich", frac >= 0.95, f"fraction={frac:.4f}"),
        CheckResult("eig.minevec.residual", resid_ok,
                    f"negative_eig_trials={negative}/{n_trials}"),
        CheckResult("eig.minevec.budget", budget_ok),
        CheckResult("eig.minevec.ritz_max", ritz_ok),
        CheckResult("eig.minevec.refined_vector",
                    gapped > 0 and worst_vector <= REFINED_VECTOR_TOL,
                    f"gapped_trials={gapped}/{negative - breakdowns} worst={worst_vector:.1e}"),
        CheckResult("eig.minevec.breakdown_vector",
                    breakdowns_gapped > 0 and worst_breakdown <= REFINED_VECTOR_TOL,
                    f"breakdown_trials={breakdowns}/{negative} gapped={breakdowns_gapped}"
                    f" worst={worst_breakdown:.1e}"),
    ]


def check_sep(cfg):
    """The separation oracle's scaling at q = 0.05, its exact hyperplane, its
    matvec budget and its Frobenius certificate."""
    rng = np.random.default_rng(3003)
    scale_hits = 0
    separated = 0
    exact_ok = True
    budget_ok = True
    lanczos = 0
    # the Frobenius certificate: W rescaled to |W|_F < l1 must be answered
    # inside at no matvec and no draw, and be inside by a dense norm
    cert_hits = 0
    n_trials = cfg["trials"]
    for t in range(n_trials):
        d = int(rng.integers(2, 41))
        l1 = float(rng.uniform(0.4, 2.5))
        w = random_symmetric(rng, d, scale=float(rng.uniform(0.2, 4.0)))
        w_in = w * (l1 * (t + 1) / (n_trials + 1) / np.linalg.norm(w))
        stream = RngStream(8_800_000 + t)
        res = sep(SymOperator(w_in, Counter()), l1, 0.05, stream)
        cert_hits += (res.case is SepCase.INSIDE_DOUBLED and res.matvecs_used == 0
                      and stream.draws == 0 and np.linalg.norm(w_in, ord=2) <= l1)
        op = SymOperator(w, Counter())
        res = sep(op, l1, 0.05, stream)
        lanczos += res.matvecs_used > 0
        w_norm = np.linalg.norm(w, ord=2)
        if res.case is SepCase.INSIDE_DOUBLED:
            scale_hits += w_norm <= 2.0 * l1
        else:
            separated += 1
            scale_hits += w_norm / res.gamma <= 2.0 * l1
            s_mat = res.sign * np.outer(res.u, res.u) / l1
            nuc = float(np.sum(np.abs(np.linalg.eigvalsh(s_mat))))
            lhs = float(np.vdot(s_mat, w)) - l1 * nuc
            exact_ok = exact_ok and lhs >= res.gamma - 1.0 - 1e-9
            exact_ok = exact_ok and np.linalg.norm(s_mat) <= 1.0 / l1 + 1e-10
        budget_ok = (budget_ok and res.matvecs_used <= sep_budget(d, 0.05)
                     and op.counter.count == res.matvecs_used)
    frac = scale_hits / n_trials
    return [
        CheckResult("eig.sep.scaling", frac >= 0.95,
                    f"fraction={frac:.4f} lanczos_trials={lanczos}/{n_trials}"),
        CheckResult("eig.sep.separation", exact_ok,
                    f"separated_trials={separated}/{n_trials}"),
        CheckResult("eig.sep.budget", budget_ok),
        CheckResult("eig.sep.frobenius_certificate", cert_hits == n_trials,
                    f"certified_trials={cert_hits}/{n_trials}"),
    ]


def _tr_instance(rng, t):
    """Instance t of the trust-region batteries: d in [2, 20], radius and
    delta cycled, every fourth instance in the hard case.  Returns
    ``(a, b, radius, delta)``."""
    d = int(rng.integers(2, 21))
    a = random_symmetric(rng, d)
    b = rng.standard_normal(d)
    d_rad = (0.1, 1.0, 10.0)[t % 3]
    delta = (1e-2, 1e-4)[(t // 3) % 2]
    if t % 4 == 3:
        return a, hard_case_b(a, b, d_rad), d_rad, delta
    return a, b * (rng.uniform(0.0, 5.0) / max(np.linalg.norm(b), 1e-12)), d_rad, delta


def check_trsolver(cfg):
    """The trust-region contract: feasibility, the residual certificate and
    the objective against an exact solve, with radius and delta cycled and
    every fourth instance in the hard case, where the interior branch runs."""
    rng = np.random.default_rng(1001)
    sound_ok = True
    quality_ok = True
    alpha_ok = True
    worst_ratio = 0.0
    worst_gap = -math.inf
    # regularized solves the probe certified; their residual is the original
    # problem's, from residual_of, so a fresh operator must reproduce it and
    # the product A delta_vec it read
    reg_exits = {"regularized_boundary": 0, "regularized_interior": 0}
    reg_exit_ok = True
    for t in range(cfg["tr_instances"]):
        a, b, d_rad, delta = _tr_instance(rng, t)
        op = SymOperator(a, Counter())
        problem = TrustRegionSubproblem(
            a_op=op, b=b, radius=d_rad, delta=delta, q=0.01,
            b_bound=2.0 * op.frobenius_norm() + 1e-9)
        sol = tr_solve(problem, RngStream(660_000 + t))
        norm = np.linalg.norm(sol.delta_vec)
        sound_ok = sound_ok and norm <= d_rad + 1e-12 and sol.residual <= delta
        worst_ratio = max(worst_ratio, sol.residual / delta)
        exact = harness.brute_tr(a, b, d_rad)
        gap = (harness.tr_objective(a, b, sol.delta_vec)
               - harness.tr_objective(a, b, exact))
        worst_gap = max(worst_gap, gap - delta * d_rad)
        quality_ok = quality_ok and gap <= delta * d_rad + 1e-9
        if sol.branch.value == "regularized_interior":
            alpha_ok = alpha_ok and abs(norm - d_rad) <= 1e-10 * d_rad
        if sol.early_exit and sol.branch.value in reg_exits:
            reg_exits[sol.branch.value] += 1
            fresh = SymOperator(a, Counter())
            reg_exit_ok = (reg_exit_ok
                           and sol.residual == residual_of(fresh, b, d_rad, sol.delta_vec)
                           and np.array_equal(sol.a_delta, fresh.apply(sol.delta_vec)))
    return [
        CheckResult("trsolver.soundness", sound_ok,
                    f"worst_residual/delta={worst_ratio:.3f}"),
        CheckResult("trsolver.quality_vs_exact", quality_ok,
                    f"worst_excess={worst_gap:.2e}"),
        CheckResult("trsolver.interior_alpha_exact", alpha_ok),
        CheckResult(
            "trsolver.regularized_early_exit",
            reg_exit_ok and min(reg_exits.values()) > 0,
            " ".join(f"{branch}_early_exits={n}/{cfg['tr_instances']}"
                     for branch, n in reg_exits.items())),
    ]


def check_krylov_start(cfg):
    """The model minimizer over min_evec's stage-1 Krylov space, on
    instances where that space is all of R^d: x_K against brute_tr's optimum
    of the same model, 0.5 x'(A - sigma I)x + b'x on the ball (sigma = 0
    when min_evec certifies PSD, else lambda_hat), in position and in the
    value krylov_minimizer reports; and the origin-started solve, which
    certifies at x_K for d + 1 matvecs, one more on the regularized interior
    branch, which moves its answer off x_K to the sphere."""
    rng = np.random.default_rng(4004)
    full = 0
    ok = True
    worst_x = worst_value = 0.0
    for t in range(cfg["tr_instances"]):
        a, b, d_rad, delta = _tr_instance(rng, t)
        d = b.size
        op = SymOperator(a, Counter())
        b_bound = 2.0 * op.frobenius_norm()
        sol = tr_solve(TrustRegionSubproblem(a_op=op, b=b, radius=d_rad, delta=delta,
                                             q=0.01, b_bound=b_bound),
                       RngStream(440_000 + t))
        # the eigenpair probe of the solve's first attempt, replayed
        ev = min_evec(SymOperator(a, Counter()), delta / (2.0 * d_rad), 0.005, b_bound,
                      RngStream(440_000 + t))
        if ev.basis.shape[1] < d:
            continue
        full += 1
        sigma = 0.0 if ev.case is MinEvecCase.PSD_CERTIFIED else ev.lambda_hat
        x_k, value = krylov_minimizer(ev.basis, ev.ritz_pairs, b, d_rad, sigma)
        model = a - sigma * np.eye(d)
        exact = harness.brute_tr(model, b, d_rad)
        scale = np.linalg.norm(b) * d_rad + b_bound * d_rad**2
        gap_x = float(np.linalg.norm(x_k - exact)) / d_rad
        gap_value = max(harness.tr_objective(model, b, x_k)
                        - harness.tr_objective(model, b, exact),
                        abs(value - harness.tr_objective(model, b, x_k))) / scale
        worst_x, worst_value = max(worst_x, gap_x), max(worst_value, gap_value)
        cost = d + 1 + (sol.branch.value == "regularized_interior")
        ok = (ok and gap_x <= KRYLOV_XTOL and gap_value <= KRYLOV_VALUE_RTOL
              and float(np.linalg.norm(x_k)) <= d_rad * (1.0 + 1e-12)
              and sol.start == "krylov" and sol.early_exit and sol.matvecs_used == cost)
    return [CheckResult(
        "trsolver.krylov_start", ok and full > 0,
        f"full_space_instances={full}/{cfg['tr_instances']} worst_x={worst_x:.2e}"
        f" worst_value={worst_value:.2e}")]


def check_early_exit(cfg):
    """Convex instances, each solved twice: certified by the caller, where
    the probe steps at 1 / b_bound, and by min_evec, where it starts from the
    top Ritz value and backtracks.  A probe's early answer has residual
    <= sqrt(eps) delta, so convexity caps its excess at 2 D times that, and
    its reported residual is the one residual_of recomputes."""
    rng = np.random.default_rng(SEED)
    exits = {"caller": 0, "eigen": 0}
    exit_ok = True
    worst_exit = -math.inf
    for t in range(cfg["tr_instances"]):
        d = int(rng.integers(2, 21))
        m = random_symmetric(rng, d)
        shift = float(rng.uniform(0.05, 1.0))
        a = m @ m.T / d + shift * np.eye(d)
        b = rng.standard_normal(d)
        d_rad = float(rng.choice([0.1, 1.0, 10.0]))
        delta = float(rng.choice([1e-2, 1e-4]))
        exact = harness.brute_tr(a, b, d_rad)
        bound = 2.0 * d_rad * EARLY_EXIT_RTOL * delta + 1e-12
        for branch, lam_min_lower in (("caller", shift), ("eigen", -math.inf)):
            op = SymOperator(a, Counter())
            problem = TrustRegionSubproblem(
                a_op=op, b=b, radius=d_rad, delta=delta, q=0.01,
                b_bound=2.0 * op.frobenius_norm(), lam_min_lower=lam_min_lower)
            sol = tr_solve(problem, RngStream(SEED * 7907 + t))
            # lambda_min >= 0.05 exceeds min_evec's delta / (4 D) <= 0.025
            exit_ok = exit_ok and sol.branch.value == "convex"
            if not sol.early_exit:
                continue
            exits[branch] += 1
            # the probe's own residual against an independent one-matvec check
            exit_ok = exit_ok and sol.residual == residual_of(
                SymOperator(a, Counter()), b, d_rad, sol.delta_vec)
            excess = (harness.tr_objective(a, b, sol.delta_vec)
                      - harness.tr_objective(a, b, exact))
            worst_exit = max(worst_exit, excess - bound)
            exit_ok = exit_ok and excess <= bound
    return [CheckResult(
        "trsolver.early_exit_quality", exit_ok and min(exits.values()) > 0,
        " ".join(f"{branch}_early_exits={n}/{cfg['tr_instances']}"
                 for branch, n in exits.items())
        + f" worst_excess={worst_exit:.2e}")]


def check_learner(cfg):
    rng = np.random.default_rng(SEED)
    out = []
    # the round gradient as learner_step applies it: W_next = W - rho * grad
    # on a round whose W is inside the doubled ball and whose step stays in
    # the Frobenius ball (a projected round lands on its sphere), so
    # grad = (W - W_next) / rho, up to the rounding of that difference
    nuc_ok = True
    worst = -math.inf
    d_rad = 1.0
    l1 = 10.0
    rho = default_rho(d_rad)
    stream = RngStream(SEED + 16)
    inside_rounds = 0
    for _ in range(cfg["learner_samples"]):
        d = int(rng.integers(2, 11))
        b = random_symmetric(rng, d)
        s = rng.standard_normal(d)
        s *= rng.uniform(0, d_rad) / max(np.linalg.norm(s), 1e-12)
        y = rng.standard_normal(d)
        r = y - b @ s
        op = SymOperator(b, Counter())
        state = dataclasses.replace(LearnerState.fresh(d, l1, rho, 0.01), w_op=op)
        learner_step(state, r, s, stream)
        w_next = state.w_op.dense()
        if np.linalg.norm(w_next) >= math.sqrt(d) * l1 * (1.0 - 1e-12):
            continue
        inside_rounds += 1
        grad = (b - w_next) / rho
        nuc = float(np.sum(np.linalg.svd(grad, compute_uv=False)))
        bound = 2.0 * d_rad * math.sqrt(float(r @ r))
        worst = max(worst, nuc - bound)
        nuc_ok = nuc_ok and nuc <= bound + 1e-9
    out.append(CheckResult(
        "learner.nuclear_bound", nuc_ok and inside_rounds > 0,
        f"worst_excess={worst:.2e} rounds={inside_rounds}/{cfg['learner_samples']}"))

    # W, a trusted build updated in place with no check, and its view
    # B = W / gamma: their layout and norms against the dense matrices, and
    # the stored norm against an exact pass under linops's invariant.
    # l1 = 0.3 puts part of the run in separated rounds
    feas_ok = trusted_ok = bound_ok = True
    separated = closed = 0
    worst_low = worst_high = 0.0
    d = 6
    for l1 in (1.3, 0.3):
        state = LearnerState.fresh(d, l1, default_rho(d_rad), 0.01)
        stream = RngStream(SEED + 17)
        for i in range(60):
            y = rng.standard_normal(d)
            s = rng.standard_normal(d)
            s *= d_rad / max(np.linalg.norm(s), 1e-12)
            separated += state.sep.case is SepCase.SEPARATED  # the round's case
            learner_step(state, y - state.b_op.dense() @ s, s, stream)
            feas_ok = (feas_ok and np.linalg.norm(state.w_op.dense())
                       <= math.sqrt(d) * l1 + 1e-9)
            trusted_ok = trusted_ok and triangle_ok(state.w_op) and triangle_ok(state.b_op)
            exact, held = upper_frobenius(state.w_op.upper), state.w_op.fro
            closed += state.w_op.fro_rounds > 0
            worst_low = max(worst_low, exact - held)
            worst_high = max(worst_high, held - exact)
            bound_ok = bound_ok and exact <= held <= (1.0 + FRO_BOUND_RTOL) * exact
    out.append(CheckResult("learner.frobenius_feasible", feas_ok))
    out.append(CheckResult("learner.trusted_build", trusted_ok and separated > 0,
                           f"separated_rounds={separated}/120"))
    out.append(CheckResult(
        "learner.closed_form_norm", bound_ok and closed > 0,
        f"closed_form_rounds={closed}/120 worst_below={worst_low:.2e} "
        f"worst_above={worst_high:.2e}"))
    return out


def _spied_run(spec, params, rho_factor):
    """Step a run, audit off, at the learner step size times ``rho_factor``,
    and recheck each subproblem and solution the steps return.  Returns the
    final state, the worst relative error of an ``a_start`` against the dense
    A ``x_start``, the worst residual / delta of an answer rechecked over that
    dense A, the plain rounds counted from the learner record (both
    separation calls answered inside and W_next is strictly inside the
    Frobenius ball), and the separated rounds, whose B is the 1/gamma view
    of W.  Every step after the first runs one round."""
    seen = {"err": 0.0, "ratio": 0.0, "plain": 0, "separated": 0}
    state = driver.init(spec, params)
    learner = state.b_state
    learner.rho *= rho_factor
    radius = math.sqrt(spec.dim) * spec.l1
    rng = RngStream(SEED)
    for n in range(params.m_total):
        played = learner.sep.case
        p, sol = driver.step(state, spec, params, rng)
        seen["plain"] += (n > 0 and played is SepCase.INSIDE_DOUBLED
                          and learner.sep.case is SepCase.INSIDE_DOUBLED
                          and np.linalg.norm(learner.w_op.dense()) < radius * (1.0 - 1e-12))
        seen["separated"] += n > 0 and learner.sep.case is SepCase.SEPARATED
        a = p.a_op.dense()
        exact = a @ p.x_start
        err = np.linalg.norm(p.a_start - exact) / (np.linalg.norm(exact) or 1.0)
        ratio = residual_of(SymOperator(a, Counter()), p.b, p.radius, sol.delta_vec) / p.delta
        seen.update(err=max(seen["err"], err), ratio=max(seen["ratio"], ratio))
    return state, seen


def check_driver(cfg):
    """One audited run's gradient count and audits, and the start-product
    contract: each solve's ``a_start`` is A ``x_start`` within
    START_PRODUCT_RTOL of a dense product, each answer's residual holds on a
    fresh operator, and a step applies A exactly at step 1 and after each
    learner round that is not plain.  Every round is plain on the lowdim
    benchmark problem and at eta x200 from a perturbed start (regularized
    solves, Lanczos separation); a learner step 1e4 times larger makes rounds
    separate, project, or follow a separated one.  Only that run separates,
    so only it plays B as the 1/gamma view of W, and it must."""
    out = []
    lowdim = catalog("coupled_trig", 16)
    lowdim_params = driver.compute_hyperparams(lowdim, 480)
    perturbed = catalog("cosine_mixture", 8)
    perturbed.x0 = perturbed.x0 + 0.3 * np.random.default_rng(1).standard_normal(8)
    auto = driver.compute_hyperparams(perturbed, 240)
    runs = (("rho_x1", lowdim, lowdim_params, 1.0),
            ("rho_x10000", lowdim, lowdim_params, 1e4),
            ("eta_x200", perturbed, dataclasses.replace(auto, eta=200.0 * auto.eta), 1.0))
    start_ok = True
    details = []
    for label, spec, params, rho_factor in runs:
        state, seen = _spied_run(spec, params, rho_factor)
        tr = state.totals["tr"]
        applied = state.matvec_counter.count - tr["matvecs"] - tr["sep_matvecs"]
        start_ok = (start_ok and seen["err"] <= START_PRODUCT_RTOL and seen["ratio"] <= 1.0
                    and applied == params.m_total - seen["plain"]
                    and applied == params.m_total - tr["start_products_derived"]
                    and (applied == 1) == (rho_factor == 1.0)
                    and (seen["separated"] > 0) == (rho_factor > 1.0))
        details.append(f"{label}: applied={applied}/{params.m_total} "
                       f"separated={seen['separated']} "
                       f"err={seen['err']:.1e} residual/delta={seen['ratio']:.2e}")
    out.append(CheckResult("driver.start_product", start_ok, " ".join(details)))

    spec = catalog("cosine_mixture", cfg["run_dim"])
    params = driver.compute_hyperparams(spec, cfg["run_budget"])
    report = driver.run(spec, params, RngStream(SEED), audit_level="full")
    expected = params.gradient_total
    out.append(CheckResult(
        "driver.gradient_count", report.totals["gradients"] == expected,
        f"{report.totals['gradients']} vs {expected}"))
    for key in ("conversion_step_ok", "averaging_episode_ok", "regret_ok",
                "stationarity_ok", "dynamic_regret_ok", "comparator_loss_ok",
                "comparator_path_ok", "fixed_point_ok"):
        if key in report.audits:
            out.append(CheckResult(f"driver.{key}", bool(report.audits[key])))
    return out


# (layer, battery): the layer names a battery's ``raised`` check
BATTERIES = (("problems", check_problems), ("linops", check_linops),
             ("eig", check_lanczos), ("eig", check_tridiagonal), ("eig", check_minevec),
             ("eig", check_sep),
             ("trsolver", check_trsolver), ("trsolver", check_krylov_start),
             ("trsolver", check_early_exit), ("learner", check_learner),
             ("driver", check_driver))
