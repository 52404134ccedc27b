import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oqn import driver, eig, harness, linops, verify
from oqn.cli import main as cli_main
from oqn.driver import compute_hyperparams
from oqn.eig import SepCase, SepResult
from oqn.errors import CertificateFailure, InvalidArgument
from oqn.problems import catalog, family_knobs, quadratic_from_matrix
from oqn.verify import random_symmetric

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = """
# sample experiment
problem=cosine_mixture
dim=4
method=oqn
budget=60
seed=7
p_fail=0.01
audit=full
"""


class TestConfig:
    def test_parse_defaults_and_overrides(self):
        cfg = harness.parse_config(CONFIG)
        assert cfg.problem == "cosine_mixture"
        assert cfg.dim == 4
        assert cfg.budget == 60
        assert cfg.audit == "full"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            harness.parse_config("problem=quadratic\nwhatever=3\n")

    def test_manual_params_block(self):
        text = ("problem=quadratic\ndim=4\nparams=manual\nd_radius=0.5\n"
                "eta=0.2\nt_len=4\nk_eps=3\ndelta_tr=1e-5\n")
        cfg = harness.parse_config(text)
        assert cfg.manual.m_total == 12
        assert cfg.manual.d_radius == 0.5

    def test_manual_params_missing_key(self):
        with pytest.raises(ValueError, match="params=manual needs"):
            harness.parse_config("params=manual\nd_radius=0.5\n")

    def test_defaults_declared_once(self):
        assert harness.RunConfig() == harness.config_from_pairs({})

    def test_params_value_checked_by_the_dataclass(self):
        with pytest.raises(ValueError, match="params must be"):
            harness.RunConfig(params="bogus")
        with pytest.raises(ValueError, match="params must be"):
            harness.parse_config("params=bogus\n")

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("OQN_SEED", "99")
        assert harness.parse_config("seed=3\n").seed == 99
        monkeypatch.delenv("OQN_SEED")
        assert harness.parse_config("seed=3\n").seed == 3


class TestDeterminism:
    def test_identical_config_gives_identical_outputs(self, tmp_path):
        cfg = harness.parse_config(CONFIG)
        outputs = []
        for tag in ("a", "b"):
            cfg.out_csv = str(tmp_path / f"{tag}.csv")
            cfg.out_report = str(tmp_path / f"{tag}.json")
            report = harness.run_experiment(cfg)
            harness.write_outputs(cfg, report, harness.report_document(cfg, report))
            outputs.append((Path(cfg.out_csv).read_bytes(),
                            Path(cfg.out_report).read_bytes()))
        assert outputs[0] == outputs[1]

    def test_report_config_names_the_run(self):
        # two problems that differ only in problem_seed and kappa must not
        # share a config block; the block alone rebuilds the run config
        base = "problem=coupled_trig\ndim=5\nbudget=60\n"
        texts = (base + "problem_seed=0\n",
                 base + "problem_seed=4\nkappa=0.3\neps_target=0.5\n")
        cfgs = [harness.config_from_pairs(harness.read_pairs(t)) for t in texts]
        blocks = [harness.report_document(c, harness.run_experiment(c))["config"]
                  for c in cfgs]
        assert blocks[0] != blocks[1]
        assert (blocks[1]["problem_seed"], blocks[1]["kappa"]) == (4, 0.3)
        assert blocks[1]["eps_target"] == 0.5
        for cfg, block in zip(cfgs, blocks):
            pairs = {k: str(v) for k, v in block.items() if v is not None}
            assert harness.config_from_pairs(pairs) == cfg
        gd = harness.config_from_pairs(harness.read_pairs(
            "problem=cosine_mixture\ndim=5\nmethod=gd_baseline\nstep_size=0.05\nmu=0.2\n"))
        block = harness.report_document(gd, harness.run_experiment(gd))["config"]
        assert (block["step_size"], block["mu"]) == (0.05, 0.2)

    def test_csv_row_count_equals_episodes(self):
        cfg = harness.parse_config(CONFIG)
        report = harness.run_experiment(cfg)
        assert len(harness.csv_rows(report)) == report.params.k_eps
        assert len(harness.csv_rows(report)) == len(report.episodes)


class TestReportDocument:
    def test_early_stop_is_reported(self):
        cfg = harness.config_from_pairs(harness.read_pairs(
            "problem=cosine_mixture\ndim=4\nbudget=480\neps_target=0.1\n"))
        report = harness.run_experiment(cfg)
        result = harness.report_document(cfg, report)["result"]
        params = report.params
        assert result["stopped_early"] is True
        assert result["iterations"] == report.totals["iterations"]
        assert result["iterations"] < params.m_total
        assert result["iterations"] % params.t_len == 0
        assert result["grad_norm_final"] <= 0.1

    def test_stationary_start_report_has_the_same_keys(self, monkeypatch):
        cfg = harness.config_from_pairs(harness.read_pairs(
            "problem=quadratic\ndim=2\nparams=manual\nd_radius=0.1\neta=1.0\n"
            "t_len=2\nk_eps=2\ndelta_tr=1e-6\n"))
        normal = harness.report_document(cfg, harness.run_experiment(cfg))
        monkeypatch.setattr(harness, "build_spec", lambda cfg: quadratic_from_matrix(
            np.eye(2), x0=np.zeros(2)))
        stationary = harness.report_document(cfg, harness.run_experiment(cfg))
        assert not normal["result"]["stationary_start"]
        assert stationary["result"]["stationary_start"]
        assert stationary.keys() == normal.keys()
        assert stationary["result"].keys() == normal["result"].keys()
        assert stationary["result"]["tr_stats"].keys() == normal["result"]["tr_stats"].keys()
        result = stationary["result"]
        assert (result["iterations"], result["stopped_early"], result["box_violations"]) \
            == (0, False, 0)
        assert (normal["result"]["iterations"], normal["result"]["stopped_early"]) == (4, False)
        assert (result["episodes"], result["gradients"]) == (0, 1)

    def test_sum_loss_cell_is_empty_when_not_measured(self):
        # audit=off never forms the pair losses: the cell is empty, not 0.0,
        # while a logged run writes the measured value, 0.0 included
        base = "problem=coupled_trig\ndim=6\nbudget=60\naudit="
        off, logged = (harness.run_experiment(harness.parse_config(base + audit))
                       for audit in ("off", "episode"))
        assert all(ep.sum_loss is None for ep in off.episodes)
        assert all(row.split(",")[3] == "" for row in harness.csv_rows(off))
        assert [row.split(",")[3] for row in harness.csv_rows(logged)] \
            == [repr(ep.sum_loss) for ep in logged.episodes]
        assert all(isinstance(ep.sum_loss, float) for ep in logged.episodes)


class TestBaselineGd:
    def test_full_step_solves_identity_quadratic(self):
        # one step of length 1 lands on the minimizer, the second iterate
        spec = quadratic_from_matrix(np.eye(1), x0=np.array([1.0]))
        out = driver.run_gd(spec, driver.GdParams(step_size=1.0, steps=2))
        assert out.w_hat[0] == pytest.approx(0.0)
        assert out.grad_norm_final == pytest.approx(0.0)

    def test_half_step_geometric_decay(self):
        # a run of k + 1 steps ends at its best iterate, x_k = 2^-k, of norm
        # 2^-k: one run's norms are 2^-k for k < 10, and ten steps reach 2^-10
        spec = quadratic_from_matrix(np.eye(1), x0=np.array([1.0]))
        for k in range(11):
            out = driver.run_gd(spec, driver.GdParams(step_size=0.5, steps=k + 1))
            assert out.w_hat[0] == pytest.approx(2.0**-k)
            np.testing.assert_allclose(out.grad_norm_final, 2.0**-k)

    def test_descent_on_cosine(self):
        # the gradient norm falls at every step of a traced descent, and the
        # run reports that trace's last iterate and norm, bit for bit
        spec = catalog("cosine_mixture", 5)
        cfg = harness.RunConfig(method="gd_baseline", budget=60)
        out = driver.run_gd(spec, harness.gd_params(cfg, spec))
        x, norms = spec.x0, []
        for _ in range(60):
            g = spec.grad(x)
            norms.append(float(np.linalg.norm(g)))
            w_last, x = x, x - (1.0 / spec.l1) * g
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert out.grad_norm_final == norms[-1]
        np.testing.assert_array_equal(out.w_hat, w_last)
        assert out.totals["gradients"] == out.totals["iterations"] == 60

    def test_box_violations_counted_per_step(self):
        # a step above 1/L1 overshoots the box of 0.5 for a few steps and
        # comes back; the run flags each iterate outside, as a replay of the
        # descent with max |x_i| taken by np.max counts them
        spec = catalog("rosenbrock_local", 4, box=0.5)
        assert 1e-3 > 1.0 / spec.l1
        out = driver.run_gd(spec, driver.GdParams(step_size=1e-3, steps=50))
        x, outside = spec.x0, 0
        for _ in range(50):
            x = x - 1e-3 * spec.grad(x)
            outside += float(np.max(np.abs(x))) > spec.box
        assert out.totals["box_violations"] == outside == 7

    def test_csv_is_header_only(self, tmp_path):
        # gradient descent closes no episode, so its CSV has no row
        cfg = harness.parse_config("problem=cosine_mixture\ndim=5\nmethod=gd_baseline\n"
                                   f"budget=12\nout_csv={tmp_path / 'gd.csv'}\n")
        report = harness.run_experiment(cfg)
        harness.write_outputs(cfg, report, {})
        assert (tmp_path / "gd.csv").read_text() == harness.CSV_HEADER + "\n"
        assert report.episodes == [] and report.totals["gradients"] == 12

    def test_eps_target_stops_at_the_first_norm_below_it(self):
        cfg = harness.parse_config("problem=cosine_mixture\ndim=5\nmethod=gd_baseline\n"
                                   "budget=50\neps_target=1e-3\n")
        result = harness.report_document(cfg, harness.run_experiment(cfg))["result"]
        steps = result["iterations"]
        assert result["stopped_early"] is True
        assert result["gradients"] == steps < 50
        assert result["grad_norm_final"] <= 1e-3
        # one step fewer ends above the target and is not stopped
        before = harness.run_experiment(dataclasses.replace(cfg, budget=steps - 1))
        assert before.grad_norm_final > 1e-3
        assert before.totals["stopped_early"] is False


class TestMethods:
    """Every config method runs through ``harness.METHODS``: it returns a
    ``driver.RunReport``, its report has the blocks and result keys of every
    other method's, and ``oqn dump-params`` prints its params block."""

    @pytest.mark.parametrize("method", list(harness.METHODS))
    def test_every_method_meets_the_contract(self, method, tmp_path, capsys):
        text = f"problem=cosine_mixture\ndim=5\nmethod={method}\nbudget=40\n"
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        cfg = harness.parse_config(text)
        report = harness.run_experiment(cfg)
        assert isinstance(report, driver.RunReport)
        doc = harness.report_document(cfg, report)
        totals = driver.new_totals()
        totals["tr_stats"] = totals.pop("tr")
        assert doc.keys() == {"config", "params", "result", "audits"}
        assert doc["result"].keys() == {"grad_norm_final", "stationary_start", "episodes",
                                        *totals}
        assert doc["result"]["tr_stats"].keys() == totals["tr_stats"].keys()
        assert cli_main(["dump-params", str(cfg_path)]) == 0
        assert capsys.readouterr().out == harness.to_json(doc["params"]) + "\n"

    @pytest.mark.parametrize("method", list(harness.METHODS))
    def test_run_reports_the_bench_cell(self, method, tmp_path, capsys):
        # rosenbrock_local d=8 at budget 1920: gradient descent's 3,870 steps
        # end far from their best iterate (1.40 against 0.32)
        grid = tmp_path / "grid.cfg"
        grid.write_text("problem=rosenbrock_local\ndim=8\nbudgets=1920\nseeds=0\n"
                        f"methods={method}\n")
        assert cli_main(["bench", str(grid)]) == 0
        _, row = capsys.readouterr().out.splitlines()
        _, _, _, best, gradients, _ = row.split(",")
        # a gd cell runs the gradients of an oqn cell as its steps
        budget = gradients if method == "gd_baseline" else 1920
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"problem=rosenbrock_local\ndim=8\nmethod={method}\n"
                            f"budget={budget}\naudit=off\n")
        assert cli_main(["run", str(cfg_path)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["grad_norm_final"] == float(best)
        assert result["gradients"] == int(gradients)


class TestBruteTr:
    def test_trivial(self):
        np.testing.assert_allclose(brute := harness.brute_tr(np.eye(2), np.zeros(2), 1.0), 0.0)

    def test_negative_curvature_matches_grid_search(self):
        # oracle: dense grid over the disk at resolution 1e-3
        a = np.diag([-1.0, 1.0])
        b = np.zeros(2)
        x = harness.brute_tr(a, b, 1.0)
        assert harness.tr_objective(a, b, x) == pytest.approx(-0.5, abs=1e-10)
        grid = np.linspace(-1, 1, 2001)
        best = min(
            harness.tr_objective(a, b, np.array([u, v]))
            for u in grid for v in (0.0, 1.0, -1.0)
            if u * u + v * v <= 1.0 + 1e-12
        )
        assert harness.tr_objective(a, b, x) <= best + 1e-6

    def test_boundary_kkt_instance(self):
        x = harness.brute_tr(np.diag([2.0, 1.0]), np.array([-4.0, 0.0]), 1.0)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-10)

    def test_interior_instance(self, np_rng):
        m = random_symmetric(np_rng, 5)
        a = m @ m.T + np.eye(5)
        b = 0.1 * np_rng.standard_normal(5)
        x = harness.brute_tr(a, b, 10.0)
        np.testing.assert_allclose(x, np.linalg.solve(a, -b), atol=1e-9)

    def test_hard_case(self):
        # b orthogonal to the bottom eigenspace: solution needs the extra
        # minimum-eigenvector component to reach the boundary
        a = np.diag([-2.0, 1.0])
        b = np.array([0.0, 0.5])
        x = harness.brute_tr(a, b, 1.0)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
        grid = np.linspace(-1, 1, 4001)
        best = min(
            harness.tr_objective(a, b, np.array([u, np.sqrt(max(0, 1 - u * u)) * sgn]))
            for u in grid for sgn in (1.0, -1.0)
        )
        assert harness.tr_objective(a, b, x) <= best + 1e-6

    def test_dim_cap(self):
        with pytest.raises(InvalidArgument, match="brute_tr caps at dim 20"):
            harness.brute_tr(np.eye(25), np.zeros(25), 1.0)

    def test_scipy_optimize_loads_only_for_a_boundary_solve(self):
        """No ``oqn`` import loads ``scipy.optimize``; a boundary solve
        loads it for ``brentq``, and answers as it does in this process."""
        a, b = np.diag([2.0, 1.0]), np.array([-4.0, 0.5])
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import oqn, oqn.harness, oqn.verify, oqn.cli\n"
            "print('scipy.optimize' in sys.modules)\n"
            "x = oqn.harness.brute_tr(np.diag([2.0, 1.0]), np.array([-4.0, 0.5]), 1.0)\n"
            "print('scipy.optimize' in sys.modules)\n"
            "print(x.tobytes().hex())\n")
        path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": path}).stdout
        assert out.split() == ["False", "True", harness.brute_tr(a, b, 1.0).tobytes().hex()]


@pytest.fixture(scope="module")
def quick_verify():
    """Exit code and output lines of one ``oqn verify`` (level quick)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["verify"])
    return code, out.getvalue().splitlines()


class TestVerifySuite:
    def test_unknown_level(self):
        with pytest.raises(InvalidArgument, match="level must be one of"):
            verify.run_all("bogus")

    def test_quick_level_all_pass(self, quick_verify):
        code, lines = quick_verify
        failed = [line for line in lines[:-1] if not line.startswith("[PASS]")]
        assert code == 0 and not failed, failed
        assert len(lines) - 1 >= 25


def _inside(res, op, l1, *args):
    return SepResult(gamma=0.0, u=np.zeros(op.dim), sign=0.0, l1=l1,
                     case=SepCase.INSIDE_DOUBLED, matvecs_used=0)


def _top_refined_vector(z, diag, off, shift, beta):
    """Stage 2 keeping the top eigenvector of the squared-shift matrix."""
    shifted = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) - shift * np.eye(diag.size)
    m_mat = shifted @ shifted
    m_mat[-1, -1] += beta**2
    return np.linalg.eigh(m_mat)[1][:, -1]


# the learner's closed-form |W_next|_F^2 as the package computes it, for
# corruptions that recompute it from changed inputs
_closed_form_sq = linops.closed_form_sq


def _skewed(spec, name, *args):
    grad = spec.grad
    return (dataclasses.replace(spec, grad=lambda x: 1.01 * grad(x))
            if name == "coupled_trig" else spec)


def _whole_stack_sum(spec, name, *args):
    """coupled_trig whose coupling sums over the whole stack, not each row:
    the bits of the catalog oracle on one point, another's on a stack."""
    if name != "coupled_trig":
        return spec
    kappa = family_knobs("coupled_trig")["kappa"]

    def grad(x):
        s = np.sin(x)
        return s + kappa * np.cos(x) * (s.sum() - s)

    return dataclasses.replace(spec, grad=grad)


class _BrokenForm:
    """A Hessian form that answers as ``form`` does but for one method,
    while ``dense()``, the battery's reference, stays right."""

    def __init__(self, form, broken):
        self.form, self.broken = form, broken

    def matvec(self, v):
        if self.broken == "matvec":
            return np.diag(self.dense()) * v  # the off-diagonal part dropped
        return self.form.matvec(v)

    def fro(self, other=None):
        if other is None or self.broken != "fro":
            return self.form.fro(None if other is None else other.form)
        # |H - H'|_F^2 as |H|^2 + |H'|^2 - 2 <H, H'>: exact in exact
        # arithmetic, cancelling to about 1e-8 |H|_F at near points
        inner = float(np.sum(self.dense() * other.dense()))
        return math.sqrt(max(self.form.fro() ** 2 + other.form.fro() ** 2 - 2.0 * inner, 0.0))

    def dense(self):
        return self.form.dense()


def _broken_form(broken):
    def corrupt(spec, name, *args):
        if name != "coupled_trig":
            return spec
        hess_at = spec.hess_at
        return dataclasses.replace(spec, hess_at=lambda x: _BrokenForm(hess_at(x), broken))
    return corrupt


@pytest.mark.parametrize("module,oracle,corrupt,battery,check", [
    (verify, "tr_solve",
     lambda sol, *args: dataclasses.replace(sol, delta_vec=0.5 * sol.delta_vec),
     verify.check_trsolver, "trsolver.quality_vs_exact"),
    # only the solves min_evec certified, which start from the top Ritz value
    (verify, "tr_solve", lambda sol, p, rng: sol if p.lam_min_lower >= 0.0 else
     dataclasses.replace(sol, delta_vec=0.5 * sol.delta_vec),
     verify.check_early_exit, "trsolver.early_exit_quality"),
    # T's diagonal off by 1e-6 relative: the basis stays orthonormal, the
    # recurrence fails
    (verify, "lanczos_factorize", lambda fact, *args: dataclasses.replace(
        fact, alphas=[(1.0 + 1e-6) * alpha for alpha in fact.alphas]),
     verify.check_lanczos, "eig.lanczos_orthogonality"),
    (verify, "lanczos_factorize",
     lambda fact, *args: dataclasses.replace(fact, basis=(1.0 + 1e-9) * fact.basis),
     verify.check_lanczos, "eig.lanczos_orthogonality"),
    # every eigenvalue one rounding step above SciPy's
    (verify, "tridiagonal_eigh", lambda res, *args: (np.nextafter(res[0], np.inf), res[1]),
     verify.check_tridiagonal, "eig.tridiagonal_lapack"),
    (verify, "min_evec", lambda res, op, delta, *args: dataclasses.replace(
        res, lambda_hat=res.lambda_hat - 2.0 * delta),
     verify.check_minevec, "eig.minevec.sandwich"),
    (verify, "min_evec", lambda res, op, *args: dataclasses.replace(
        res, ritz_max=res.ritz_max + 1e-6 * op.frobenius_norm()),
     verify.check_minevec, "eig.minevec.ritz_max"),
    (verify, "min_evec",
     lambda res, *args: dataclasses.replace(res, v_hat=(1.0 + 1e-6) * res.v_hat),
     verify.check_minevec, "eig.minevec.residual"),
    (eig, "refined_vector", _top_refined_vector, verify.check_minevec,
     "eig.minevec.refined_vector"),
    # v_hat from stage 1's second Ritz pair: a unit eigenvector after a
    # breakdown, but not the bottom one
    (verify, "min_evec", lambda res, *args: dataclasses.replace(
        res, v_hat=res.basis @ res.ritz_pairs[1][:, 1]) if res.basis.shape[1] > 1 else res,
     verify.check_minevec, "eig.minevec.breakdown_vector"),
    (verify, "sep", _inside, verify.check_sep, "eig.sep.scaling"),
    (verify, "sep",
     lambda res, *args: dataclasses.replace(res, matvecs_used=res.matvecs_used - 1),
     verify.check_sep, "eig.sep.budget"),
    (verify, "catalog", _skewed, verify.check_problems, "problems.fd.coupled_trig"),
    (verify, "catalog", _whole_stack_sum, verify.check_problems, "problems.grad_rows"),
    (verify, "catalog", _broken_form("matvec"), verify.check_problems,
     "problems.structured_hessian"),
    (verify, "catalog", _broken_form("fro"), verify.check_problems,
     "problems.structured_hessian"),
    # a derived start product off by 1e-10 relative: err 4e-8 against 1e-13
    (driver, "daxpy", lambda res, *args: (1.0 + 1e-10) * res,
     verify.check_driver, "driver.start_product"),
    # the learner's stored norm without the cross term r'W s, or without
    # the rounding allowance that keeps it from rounding low
    (linops, "closed_form_sq",
     lambda res, fro, cross, *rest: _closed_form_sq(fro, 0.0, *rest),
     verify.check_learner, "learner.closed_form_norm"),
    (linops, "closed_form_sq", lambda res, *args: (res[0], 0.0),
     verify.check_learner, "learner.closed_form_norm"),
], ids=["off_optimum", "eigen_certified_off_optimum", "perturbed_tridiagonal",
        "stretched_lanczos_basis", "rounded_tridiagonal_eigenvalues", "low_eigenvalue",
        "high_ritz_value", "stretched_eigenvector", "top_refined_vector",
        "second_ritz_vector", "always_inside", "undercounted_matvecs",
        "scaled_gradient", "whole_stack_sum", "hessian_product_without_coupling",
        "cancelling_hessian_difference", "skewed_start_product",
        "closed_form_without_cross_term", "closed_form_without_rounding_allowance"])
def test_contract_battery_fails_on_a_broken_oracle(monkeypatch, module, oracle, corrupt,
                                                   battery, check):
    """A shared battery must not turn vacuous: break its oracle in the
    namespace the battery reads and the matching check reports FAIL."""
    real = getattr(module, oracle)
    monkeypatch.setattr(module, oracle,
                        lambda *args, **kw: corrupt(real(*args, **kw), *args))
    failed = [c.name for c in battery(verify.SCALES["quick"]) if not c.passed]
    assert check in failed


def _raise_synthetic(*args):
    raise CertificateFailure("synthetic")


def _raise_arithmetic(*args):
    raise ArithmeticError("dense eigendecomposition residual out of tolerance")


@pytest.mark.parametrize("oracle,fake,swaps", [
    ("sep", lambda real: _raise_synthetic,
     [("eig.sep.", ["[FAIL] eig.raised  (CertificateFailure: synthetic)"])]),
    # a package check, not a synthetic raise: the real eig.sep at l1 = 0
    ("sep", lambda real: lambda op, l1, *args: real(op, 0.0, *args),
     [("eig.sep.", ["[FAIL] eig.raised  (InvalidArgument: l1 must be positive and finite, "
                   "got 0.0)"])]),
    # the three trsolver batteries solve through verify.tr_solve, so all raise
    ("tr_solve", lambda real: lambda p, rng: real(dataclasses.replace(p, radius=0.0), rng),
     [("trsolver.", ["[FAIL] trsolver.raised  "
                     "(InvalidArgument: radius must be positive and finite, got 0.0)"] * 3)]),
    # the dense oracle's self-check, read by the linops and min_evec batteries
    ("dense_extreme_eig", lambda real: _raise_arithmetic,
     [(block, [f"[FAIL] {layer}.raised  (ArithmeticError: dense eigendecomposition "
               "residual out of tolerance)"])
      for block, layer in (("linops.", "linops"), ("eig.minevec.", "eig"))]),
], ids=["certificate_failure", "sep_l1_zero", "tr_radius_zero", "dense_oracle_self_check"])
def test_raising_battery_is_one_failed_check(monkeypatch, quick_verify, capsys, oracle, fake,
                                             swaps):
    """A battery that raises becomes one FAIL line in place of its checks;
    every other check still reports, and the exit code is 2."""
    monkeypatch.setattr(verify, oracle, fake(getattr(verify, oracle)))
    assert cli_main(["verify"]) == 2
    lines = capsys.readouterr().out.splitlines()
    expected = quick_verify[1][:-1]
    for block, failures in swaps:
        at = [i for i, line in enumerate(expected) if line.startswith("[PASS] " + block)]
        assert at == list(range(at[0], at[-1] + 1))
        expected = expected[:at[0]] + failures + expected[at[-1] + 1:]
    assert lines[:-1] == expected
    n_failed = sum(len(failures) for _, failures in swaps)
    assert lines[-1] == f"{len(expected) - n_failed}/{len(expected)} checks passed"


GD_GRID = "problem=cosine_mixture\ndim=4\nbudgets=40,80\nseeds=0\nmethods=oqn,gd_baseline\n"


class TestBench:
    @pytest.mark.parametrize("line", ["kapa=0.9", "dim 8", "params=magic"])
    def test_bad_run_key_fails_as_in_run(self, line):
        with pytest.raises(ValueError) as run_err:
            harness.parse_config(line + "\n")
        with pytest.raises(ValueError) as bench_err:
            harness.bench("budgets=40\nseeds=0\n" + line + "\n")
        assert str(bench_err.value) == str(run_err.value)

    @pytest.mark.parametrize("key,hint", [
        ("budget", "budgets="), ("seed", "seeds="), ("method", "methods="),
        ("out_csv", "stdout"), ("out_report", "stdout"),
    ])
    def test_cell_keys_rejected_with_the_key_to_use(self, key, hint):
        with pytest.raises(ValueError, match=f"{key} is not a bench key.*{hint}"):
            harness.bench(f"{key}=60\n")

    def test_bad_method_raises_before_any_cell(self, monkeypatch):
        # every methods= entry is checked up front, under the key methods
        cells = []
        monkeypatch.setattr(harness, "run_experiment", cells.append)
        with pytest.raises(InvalidArgument, match=r"^methods must be one of .*got 'newton'"):
            harness.bench("dim=4\nbudgets=40,80\nseeds=0\nmethods=oqn,newton\n")
        assert cells == []

    def test_run_keys_reach_every_cell(self, monkeypatch):
        cells = []
        real = harness.run_experiment

        def spy(cfg):
            cells.append(cfg)
            return real(cfg)

        monkeypatch.setattr(harness, "run_experiment", spy)
        harness.bench("problem=coupled_trig\ndim=4\nbudgets=40,80\nseeds=0,1\n"
                      "kappa=0.9\ngap_bound=2.5\n")
        assert len(cells) == 4
        assert all(c.problem_kwargs == {"kappa": 0.9} for c in cells)
        assert all(c.gap_bound == 2.5 and c.audit == "off" for c in cells)

    def test_manual_params_grid_runs(self):
        eta = 0.5 / catalog("quadratic", 4).l1
        rows, _ = harness.bench(
            "problem=quadratic\ndim=4\nparams=manual\nd_radius=1.0\n"
            f"eta={eta!r}\nt_len=4\nk_eps=3\ndelta_tr=1e-5\n"
            "budgets=40\nseeds=0\nmethods=oqn,gd_baseline\n")
        assert [(r[0], r[4]) for r in rows] == [("oqn", 28), ("gd_baseline", 28)]

    def test_manual_params_reject_several_budgets(self):
        # the manual block fixes M, so a second budget would repeat the run
        with pytest.raises(ValueError, match="params=manual fixes M"):
            harness.bench(
                "problem=quadratic\ndim=4\nparams=manual\nd_radius=1.0\n"
                "eta=0.1\nt_len=4\nk_eps=3\ndelta_tr=1e-5\n"
                "budgets=40,80\nseeds=0\n")

    def test_gd_cell_spends_the_oqn_cell_gradients(self):
        rows, _ = harness.bench(GD_GRID)
        grads = {(method, budget): g for method, budget, _, _, g, _ in rows}
        for budget in (40, 80):
            params = compute_hyperparams(catalog("cosine_mixture", 4), budget)
            expected = 2 * params.m_total + params.k_eps + 1
            assert grads[("gd_baseline", budget)] == grads[("oqn", budget)] == expected

    def test_env_seed_leaves_cell_seeds_alone(self, monkeypatch):
        run_seeds = []
        real = harness.driver.run

        def spy(spec, params, rng, **kwargs):
            run_seeds.append(rng.seed)
            return real(spec, params, rng, **kwargs)

        monkeypatch.setattr(harness.driver, "run", spy)
        monkeypatch.setenv("OQN_SEED", "99")
        rows, _ = harness.bench("dim=4\nbudgets=40\nseeds=0,1\n")
        assert run_seeds == [r[2] for r in rows] == [0, 1]

    @pytest.mark.parametrize("text,unfit", [
        ("dim=4\nbudgets=40\nseeds=0\n", "oqn"),
        (GD_GRID, "gd_baseline"),
    ])
    def test_degenerate_slope_is_skipped_without_warnings(self, text, unfit,
                                                          tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["bench", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        assert f"median[{unfit}," in err
        assert f"slope[{unfit}]" not in err


class TestCli:
    def test_run_exits_2_on_a_failed_audit(self, monkeypatch, tmp_path, capsys):
        # the report is still printed; the exit code says an audit failed
        failed = {"regret_ok": False, "all_ok": False}
        monkeypatch.setattr(driver, "audit_regret", lambda report, spec, params: failed)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("problem=cosine_mixture\ndim=4\nbudget=40\n")
        assert cli_main(["run", str(cfg_path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["audits"] == failed
        assert doc["result"]["iterations"] > 0

    def test_dump_params_matches_library(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("problem=cosine_mixture\ndim=4\nbudget=1000\n")
        rc = cli_main(["dump-params", str(cfg_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        params = compute_hyperparams(catalog("cosine_mixture", 4), 1000)
        assert doc["d_radius"] == pytest.approx(params.d_radius, rel=1e-15)
        assert doc["t_len"] == params.t_len
        assert doc["k_eps"] == params.k_eps

    @pytest.mark.parametrize("text", [
        "problem=quadratic\ndim=4\nparams=manual\nd_radius=0.5\neta=0.2\n"
        "t_len=4\nk_eps=3\ndelta_tr=1e-5\n",
        "problem=coupled_trig\ndim=5\nkappa=0.9\nproblem_seed=3\n"
        "budget=300\ngap_bound=2.5\n",
    ])
    def test_dump_params_prints_what_run_uses(self, text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        assert cli_main(["dump-params", str(cfg_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        cfg = harness.parse_config(text)
        params = harness.run_params(cfg, harness.build_spec(cfg))
        assert doc == {key: getattr(params, key) for key in doc}
        assert set(doc) == {"d_radius", "eta", "t_len", "k_eps", "m_total", "delta_tr",
                            "p_fail"}

    @pytest.mark.parametrize("extra,step_size", [("", None), ("step_size=0.05\n", 0.05)])
    def test_dump_params_prints_the_gd_step(self, extra, step_size, tmp_path, capsys):
        # gradient descent's params: budget steps of one size
        text = "problem=cosine_mixture\ndim=5\nmethod=gd_baseline\nbudget=50\n" + extra
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        assert cli_main(["dump-params", str(cfg_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        spec = catalog("cosine_mixture", 5)
        assert doc == {"step_size": step_size or 1.0 / spec.l1, "steps": 50}
        # the run's own params take that step: its second iterate, and best
        params = harness.run_experiment(harness.parse_config(text)).params
        assert params.document() == doc
        gd = driver.run_gd(spec, dataclasses.replace(params, steps=2))
        np.testing.assert_array_equal(
            gd.w_hat, spec.x0 - doc["step_size"] * spec.grad(spec.x0))

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        assert cli_main([]) == 1

    def test_verify_reports_every_check(self, quick_verify):
        code, lines = quick_verify
        n = sum(line.startswith(("[PASS]", "[FAIL]")) for line in lines)
        assert code == 0
        assert lines[-1] == f"{n}/{n} checks passed"

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG + "bogus=1\n")
        assert cli_main(["run", str(cfg_path)]) == 1
        assert "error: unknown config keys: ['bogus']" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,knob,takes", [
        ("cosine_mixture", "kappa", "the knobs ['mu']"), ("quadratic", "mu", "no knobs")])
    def test_knob_of_another_family_exits_1(self, problem, knob, takes, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"problem={problem}\ndim=4\nbudget=40\n{knob}=0.3\n")
        assert cli_main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {problem} takes {takes}, got ['{knob}']"]

    @pytest.mark.parametrize("problem,dim", [("coupled_trig", 6), ("rosenbrock_local", 4)])
    def test_run_report_serializes_for_every_family(self, problem, dim, tmp_path, capsys):
        # regression: numpy scalar constants must not leak into the report
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            f"problem={problem}\ndim={dim}\nbudget=40\nseed=1\naudit=full\n"
            f"out_report={tmp_path/'r.json'}\n")
        rc = cli_main(["run", str(cfg_path)])
        capsys.readouterr()
        assert rc in (0, 2)  # parses, runs, serializes; audits decide the code
        doc = json.loads((tmp_path / "r.json").read_text())
        assert isinstance(doc["audits"]["all_ok"], bool)

    def test_run_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG + f"out_csv={tmp_path/'o.csv'}\n"
                            f"out_report={tmp_path/'o.json'}\n")
        rc = cli_main(["run", str(cfg_path)])
        assert rc == 0
        csv_lines = (tmp_path / "o.csv").read_text().splitlines()
        assert csv_lines[0] == harness.CSV_HEADER
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["audits"]["all_ok"] is True
        assert "wall_time_s" not in json.dumps(doc)

    def test_stationary_start_runs_zero_episodes(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(harness, "build_spec", lambda cfg: quadratic_from_matrix(
            np.eye(2), x0=np.zeros(2)))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            "problem=quadratic\ndim=2\nparams=manual\nd_radius=0.1\neta=1.0\n"
            f"t_len=2\nk_eps=2\ndelta_tr=1e-6\nout_csv={tmp_path / 'o.csv'}\n")
        assert cli_main(["run", str(cfg_path)]) == 0
        assert '"episodes": 0' in capsys.readouterr().out
        assert (tmp_path / "o.csv").read_text() == harness.CSV_HEADER + "\n"

    def test_certificate_failure_maps_to_exit_2(self, monkeypatch, tmp_path):
        from oqn.errors import CertificateFailure

        def boom(cfg):
            raise CertificateFailure("synthetic")

        monkeypatch.setattr(harness, "run_experiment", boom)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG)
        assert cli_main(["run", str(cfg_path)]) == 2

    def test_bench_smoke(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.txt"
        cfg_path.write_text(
            "problem=cosine_mixture\ndim=4\nbudgets=40,80\nseeds=0\n"
            "methods=oqn\naudit=off\n")
        rc = cli_main(["bench", str(cfg_path)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("method,budget,seed")
        assert len(out) == 3
