import contextlib
import dataclasses
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from oqn import driver, harness, verify
from oqn.cli import main as cli_main
from oqn.driver import compute_hyperparams
from oqn.eig import SepCase, SepResult
from oqn.errors import CertificateFailure, InvalidArgument
from oqn.problems import catalog, quadratic_from_matrix
from oqn.verify import random_symmetric

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
            exp = harness.run_experiment(cfg)
            harness.write_outputs(exp, harness.report_document(exp))
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
        blocks = [harness.report_document(harness.run_experiment(c))["config"]
                  for c in cfgs]
        assert blocks[0] != blocks[1]
        assert (blocks[1]["problem_seed"], blocks[1]["kappa"]) == (4, 0.3)
        assert blocks[1]["eps_target"] == 0.5
        for cfg, block in zip(cfgs, blocks):
            pairs = {k: str(v) for k, v in block.items() if v is not None}
            assert harness.config_from_pairs(pairs) == cfg
        gd = harness.config_from_pairs(harness.read_pairs(
            "problem=cosine_mixture\ndim=5\nmethod=gd_baseline\nstep_size=0.05\nmu=0.2\n"))
        block = harness.report_document(harness.run_experiment(gd))["config"]
        assert (block["step_size"], block["mu"]) == (0.05, 0.2)

    def test_csv_row_count_equals_episodes(self):
        cfg = harness.parse_config(CONFIG)
        exp = harness.run_experiment(cfg)
        assert len(exp.csv_rows) == exp.report.params.k_eps
        assert len(exp.csv_rows) == len(exp.report.episodes)


class TestReportDocument:
    def test_early_stop_is_reported(self):
        cfg = harness.config_from_pairs(harness.read_pairs(
            "problem=cosine_mixture\ndim=4\nbudget=480\neps_target=0.1\n"))
        exp = harness.run_experiment(cfg)
        result = harness.report_document(exp)["result"]
        params = exp.report.params
        assert result["stopped_early"] is True
        assert result["iterations"] == exp.report.totals["iterations"]
        assert result["iterations"] < params.m_total
        assert result["iterations"] % params.t_len == 0
        assert result["grad_norm_final"] <= 0.1

    def test_stationary_start_report_has_the_same_keys(self, monkeypatch):
        cfg = harness.config_from_pairs(harness.read_pairs(
            "problem=quadratic\ndim=2\nparams=manual\nd_radius=0.1\neta=1.0\n"
            "t_len=2\nk_eps=2\ndelta_tr=1e-6\n"))
        normal = harness.report_document(harness.run_experiment(cfg))
        monkeypatch.setattr(harness, "build_spec", lambda cfg: quadratic_from_matrix(
            np.eye(2), x0=np.zeros(2)))
        stationary = harness.report_document(harness.run_experiment(cfg))
        assert not normal["result"]["stationary_start"]
        assert stationary["result"]["stationary_start"]
        assert stationary.keys() == normal.keys()
        assert stationary["result"].keys() == normal["result"].keys()
        assert stationary["result"]["tr_stats"].keys() == normal["result"]["tr_stats"].keys()
        result = stationary["result"]
        assert (result["iterations"], result["stopped_early"], result["box_violations"]) \
            == (0, False, 0)
        assert (normal["result"]["iterations"], normal["result"]["stopped_early"]) == (4, False)


class TestBaselineGd:
    def test_full_step_solves_identity_quadratic(self):
        spec = quadratic_from_matrix(np.eye(1), x0=np.array([1.0]))
        out = harness.baseline_gd(spec, 1, step_size=1.0)
        assert out.x_final[0] == pytest.approx(0.0)

    def test_half_step_geometric_decay(self):
        spec = quadratic_from_matrix(np.eye(1), x0=np.array([1.0]))
        out = harness.baseline_gd(spec, 10, step_size=0.5)
        assert out.x_final[0] == pytest.approx(2.0**-10)
        np.testing.assert_allclose(out.grad_norms, [2.0**-k for k in range(10)])

    def test_descent_on_cosine(self):
        spec = catalog("cosine_mixture", 5)
        out = harness.baseline_gd(spec, 60)
        norms = out.grad_norms
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert out.gradients == 60


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


def _skewed(spec, name, *args):
    grad = spec.grad
    return (dataclasses.replace(spec, grad=lambda x: 1.01 * grad(x))
            if name == "coupled_trig" else spec)


@pytest.mark.parametrize("module,oracle,corrupt,battery,check", [
    (verify, "tr_solve",
     lambda sol, *args: dataclasses.replace(sol, delta_vec=0.5 * sol.delta_vec),
     verify.check_trsolver, "trsolver.quality_vs_exact"),
    # only the solves min_evec certified, which start from the top Ritz value
    (verify, "tr_solve", lambda sol, p, rng: sol if p.lam_min_lower >= 0.0 else
     dataclasses.replace(sol, delta_vec=0.5 * sol.delta_vec),
     verify.check_early_exit, "trsolver.early_exit_quality"),
    (verify, "min_evec", lambda res, op, delta, *args: dataclasses.replace(
        res, lambda_hat=res.lambda_hat - 2.0 * delta),
     verify.check_minevec, "eig.minevec.sandwich"),
    (verify, "min_evec", lambda res, op, *args: dataclasses.replace(
        res, ritz_max=res.ritz_max + 1e-6 * op.frobenius_norm()),
     verify.check_minevec, "eig.minevec.ritz_max"),
    (verify, "min_evec",
     lambda res, *args: dataclasses.replace(res, v_hat=(1.0 + 1e-6) * res.v_hat),
     verify.check_minevec, "eig.minevec.residual"),
    (verify, "sep", _inside, verify.check_sep, "eig.sep.scaling"),
    (verify, "sep",
     lambda res, *args: dataclasses.replace(res, matvecs_used=res.matvecs_used - 1),
     verify.check_sep, "eig.sep.budget"),
    (verify, "catalog", _skewed, verify.check_problems, "problems.fd.coupled_trig"),
    # a derived start product off by 1e-10 relative: err 4e-8 against 1e-13
    (driver, "daxpy", lambda res, *args: (1.0 + 1e-10) * res,
     verify.check_driver, "driver.start_product"),
], ids=["off_optimum", "eigen_certified_off_optimum", "low_eigenvalue", "high_ritz_value",
        "stretched_eigenvector", "always_inside", "undercounted_matvecs", "scaled_gradient",
        "skewed_start_product"])
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
     [("eig.sep.", ["[FAIL] eig.raised  (InvalidArgument: l1 must be positive and finite)"])]),
    # both trsolver batteries solve through verify.tr_solve, so both raise
    ("tr_solve", lambda real: lambda p, rng: real(dataclasses.replace(p, radius=0.0), rng),
     [("trsolver.", ["[FAIL] trsolver.raised  "
                     "(InvalidArgument: radius must be positive and finite)"] * 2)]),
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
        # gradient descent has no HyperParams: it takes budget steps of one size
        text = "problem=cosine_mixture\ndim=5\nmethod=gd_baseline\nbudget=50\n" + extra
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        assert cli_main(["dump-params", str(cfg_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        spec = catalog("cosine_mixture", 5)
        assert doc == {"step_size": step_size or 1.0 / spec.l1, "steps": 50}
        gd = harness.baseline_gd(spec, 1, step_size)
        np.testing.assert_array_equal(
            gd.x_final, spec.x0 - doc["step_size"] * spec.grad(spec.x0))

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
