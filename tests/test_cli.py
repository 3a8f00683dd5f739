import csv
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from fraclab import (bubbles, cli, constants, extension, fracops,
                     movingsphere, reports)
from fraclab.params import Params


def test_parse_phi():
    f = reports.parse_phi("r^-10")
    assert f(2.0) == pytest.approx(2.0 ** -10)
    g = reports.parse_phi("2.5*r^-3")
    assert g(2.0) == pytest.approx(2.5 / 8.0)
    with pytest.raises(ValueError):
        reports.parse_phi("exp(r)")


def test_config_round_trip(tmp_path):
    cfg = reports.RunConfig(n=3, sigma=0.25, N=4, phi="r^-2", seed=42,
                            tol_scale=2.0, suite="solver")
    path = tmp_path / "run.cfg"
    path.write_text("n = 3\nsigma = 0.25\nN = 4\nphi = r^-2\nseed = 42\n"
                    "out = \ntol_scale = 2.0\nsuite = solver\n")
    back = reports.RunConfig.from_file(str(path))
    assert back == cfg


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        reports.RunConfig.from_file(str(path))


def test_verify_constants_suite(tmp_path, capsys):
    rc = cli.main(["verify", "--suite", "constants", "--n", "2",
                   "--sigma", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ALL PASS" in out
    report = json.loads((tmp_path / "report_constants.json").read_text())
    assert report["passed"]
    assert all("claim" in c for c in report["checks"])


def test_constants_subcommand(tmp_path, capsys):
    rc = cli.main(["constants", "--n", "2", "--sigma", "0.5",
                   "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert payload["constants"]["c_tilde"] == pytest.approx(1.0)


def _reject_constant(token):
    raise ValueError(f"not JSON: {token}")


def test_constants_file_is_strict_json(tmp_path, capsys):
    # at n <= 2 sigma the critical exponents do not exist; they are null
    rc = cli.main(["constants", "--n", "1", "--sigma", "0.75",
                   "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "constants.json").read_text()
    payload = json.loads(text, parse_constant=_reject_constant)["constants"]
    assert payload["p"] is None and payload["c_tilde"] is None
    assert payload["d_sigma"] == pytest.approx(
        constants.d_sigma(Params(1, 0.75)))


def test_construct_subcommand(tmp_path, capsys):
    rc = cli.main(["construct", "--N", "8", "--phi", "r^-10",
                   "--out", str(tmp_path)])
    assert rc == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["i0"] == 257
    assert plan["beta"] == pytest.approx(1.0 / 27.0)
    assert plan["all_margins_positive"]


def test_construct_infeasible_plan_is_reported(tmp_path, capsys):
    # N = 19 needs lambda_19 below the float floor; no traceback, exit 1
    rc = cli.main(["construct", "--N", "19", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "lambda_19" in err and "e^-740" in err
    assert not (tmp_path / "plan.json").exists()


def test_construct_honours_n_and_sigma(tmp_path, capsys):
    rc = cli.main(["construct", "--n", "6", "--sigma", "0.5", "--N", "8",
                   "--out", str(tmp_path)])
    assert rc == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert (plan["n"], plan["sigma"], plan["N"]) == (6, 0.5, 8)
    capsys.readouterr()
    rc = cli.main(["construct", "--n", "4", "--sigma", "0.25", "--N", "16"])
    assert rc == 1
    assert ("no plan for N=16: the target M_16 exceeds the float range"
            in capsys.readouterr().err)


def test_construct_plans_at_the_config_files_n_and_sigma(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("n = 6\nsigma = 0.75\n")
    rc = cli.main(["construct", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert (plan["n"], plan["sigma"], plan["N"]) == (6, 0.75, 8)
    assert plan["all_margins_positive"]


def test_construct_with_a_vast_ring_ends_with_its_reason():
    # i0 = 1518500250 at (20, 1/2): the ring check sums near neighbours
    # only, so the run ends at once, in little memory, naming i0
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "fraclab.cli", "construct", "--n", "20",
         "--sigma", "0.5", "--N", "8"], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory)
    assert proc.returncode == 1
    assert "i0 = 1518500250" in proc.stderr


def test_extend_suite_runs_past_three_dimensions(capsys):
    # the mass check extends a radial constant, which needs no sphere rule
    assert cli.main(["verify", "--suite", "extend", "--n", "5"]) == 0
    assert "ALL PASS" in capsys.readouterr().out


@pytest.mark.parametrize("args", [["--n", "5"], ["--n", "1", "--sigma", "0.25"]])
def test_green_suite_runs_at_the_given_n(args, capsys):
    # the Green potential is one integral in rho at every n > 2 sigma
    assert cli.main(["verify", "--suite", "green"] + args) == 0
    assert "ALL PASS" in capsys.readouterr().out


def test_fraclap_suite_inverts_at_the_given_n(monkeypatch):
    dims, tabulate = [], fracops.riesz_field
    monkeypatch.setattr(fracops, "riesz_field", lambda field, pr: (
        dims.append(pr.n), tabulate(field, pr))[1])
    checks = reports.suite_fraclap(reports.RunConfig(n=5, sigma=0.5))
    assert dims == [2, 3, 5]
    assert all(c["passed"] for c in checks)


def test_bubble_suite_checks_the_identity_at_the_given_n_and_sigma(
        monkeypatch):
    cases, residuals = [], bubbles.bubble_identity_residuals
    monkeypatch.setattr(bubbles, "bubble_identity_residuals",
                        lambda pr, **kw: (cases.append((pr.n, pr.sigma)),
                                          residuals(pr, **kw))[1])
    checks = reports.suite_bubble(reports.RunConfig(n=5, sigma=0.25))
    # the identity, then the amplitude perturbation at (2, 1/2)
    assert cases == [(2, 0.5), (3, 0.5), (3, 0.75), (5, 0.25), (2, 0.5)]
    assert all(c["passed"] for c in checks)


def test_extend_suite_extends_at_the_given_sigma(monkeypatch):
    sigmas, extend = set(), extension.extend
    monkeypatch.setattr(extension, "extend", lambda field, y, t, pr: (
        sigmas.add(pr.sigma), extend(field, y, t, pr))[1])
    checks = reports.suite_extend(reports.RunConfig(n=3, sigma=0.25))
    assert sigmas == {0.25}
    assert [c["name"] for c in checks][-1] == "conformal-invariance"
    assert all(c["passed"] for c in checks)


def test_commands_run_at_the_given_n(tmp_path, capsys):
    # --n 1 runs at n = 1, where it used to run at n = 2: each output is
    # checked against its value at n = 1
    pr = Params(1, 0.25)
    argv = ["--n", "1", "--sigma", "0.25", "--out", str(tmp_path)]
    w = bubbles.model_bubble(pr)
    assert cli.main(["fraclap"] + argv) == 0
    rows = _csv_rows(tmp_path / "fraclap_bubble.csv")
    r = np.array([float(row["radius"]) for row in rows])
    want = constants.bubble_eigenvalue(pr) * w.radial_profile(r) ** pr.p
    np.testing.assert_allclose([float(row["frac_lap"]) for row in rows],
                               want, rtol=1e-6)
    assert cli.main(["extend"] + argv) == 0
    rows = _csv_rows(tmp_path / "extension_samples.csv")
    y = np.array([[float(row["base_radius"])] for row in rows])
    t = np.array([float(row["height"]) for row in rows])
    np.testing.assert_allclose([float(row["extension_value"]) for row in rows],
                               extension.model_bubble_extension(y, t, pr),
                               rtol=1e-6)
    capsys.readouterr()
    assert cli.main(["bubble"] + argv) == 0
    worst = float(np.max(bubbles.bubble_identity_residuals(pr)))
    assert capsys.readouterr().out == f"max identity residual: {worst:.3e}\n"


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_extend_suite_runs_at_one_dimension(monkeypatch, capsys):
    dims, extend = set(), extension.extend
    monkeypatch.setattr(extension, "extend", lambda field, y, t, pr: (
        dims.add(pr.n), extend(field, y, t, pr))[1])
    assert cli.main(["verify", "--suite", "extend", "--n", "1",
                     "--sigma", "0.25"]) == 0
    assert dims == {1}
    assert "ALL PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["fraclap", "bubble", "extend"])
def test_a_subcritical_command_is_a_usage_error(capsys, command):
    # n <= 2 sigma has no critical exponent: exit 2 with n and sigma named
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--n", "1", "--sigma", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].endswith(
        "n=1 and sigma=0.5: exponent requires n > 2*sigma")


def test_iterate_getoor_writes_csv(tmp_path, capsys):
    rc = cli.main(["iterate", "--demo", "getoor", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "iterates_getoor.csv").read_text().splitlines()
    assert lines[0].startswith("x,iterate_0")
    assert len(lines) > 100


def test_fraclap_subcommand_writes_the_bubble_identity(tmp_path):
    # (-Lap)^s of the model bubble is its eigenvalue times its critical power
    assert cli.main(["fraclap", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fraclap_bubble.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13
    for row in rows:
        assert float(row["frac_lap"]) == pytest.approx(
            float(row["eigenvalue_times_power"]), rel=1e-3)
        assert float(row["quadrature_error"]) > 0.0


def test_iterate_construction1d_demo(capsys):
    # solve_linear gives the supersolution, then monotone_iterate runs on
    # the same problem
    rc = cli.main(["iterate", "--demo", "construction1d"])
    assert rc == 0
    assert "converged=True monotone=True" in capsys.readouterr().out


def test_suite_determinism(tmp_path):
    cfg1 = reports.RunConfig(suite="msphere", seed=7)
    cfg2 = reports.RunConfig(suite="msphere", seed=7, out="elsewhere")
    r1 = reports.format_report(reports.run_suite(cfg1))
    r2 = reports.format_report(reports.run_suite(cfg2))
    assert r1 == r2


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        reports.run_suite(reports.RunConfig(suite="nope"))


def test_msphere_subcommand_matches_verify(tmp_path, capsys):
    cli.main(["msphere", "--out", str(tmp_path / "a")])
    cli.main(["verify", "--suite", "msphere", "--out", str(tmp_path / "b")])
    name = "report_msphere.json"
    assert (tmp_path / "a" / name).read_bytes() == \
        (tmp_path / "b" / name).read_bytes()


def test_subcritical_config_rejected_up_front():
    with pytest.raises(reports.ConfigError, match=r"n=1 and sigma=0\.5"):
        reports.run_suite(reports.RunConfig(suite="constants", n=1, sigma=0.5))


def test_subcritical_config_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "constants", "--n", "1",
                  "--sigma", "0.5"])
    assert exc.value.code == 2
    assert "n=1 and sigma=0.5" in capsys.readouterr().err


@pytest.mark.parametrize("argv,reason", [
    (["--suite", "fraclap", "--n", "5", "--sigma", "1.5"],
     "sigma must lie in (0, 1), got 1.5"),
    (["--suite", "all", "--n", "5", "--sigma", "0"],
     "sigma must lie in (0, 1), got 0.0"),
    (["--config", "bogus = 1\n"], "unknown config key: bogus"),
    (["--config", "n = three\n"], "config key n: cannot read 'three' as int"),
], ids=["sigma-1.5", "sigma-0", "unknown-key", "unparsable-value"])
def test_bad_run_config_is_a_usage_error(tmp_path, capsys, argv, reason):
    # no silent fallback and no traceback: exit 2 with the reason
    if argv[0] == "--config":
        path = tmp_path / "run.cfg"
        path.write_text(argv[1])
        argv = ["--config", str(path), "--suite", "constants"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].endswith(reason)


def test_sweep_without_sign_change_fails_its_check(monkeypatch):
    monkeypatch.setattr(movingsphere, "lambda_star_sweep",
                        lambda *args, **kwargs: {"lambda_star": None,
                                                 "grid": [], "minima": []})
    first = reports.suite_msphere(reports.RunConfig(suite="msphere"))[0]
    assert first["name"] == "critical-radius-bracket"
    assert not first["passed"]
    assert first["margin"] is None


@pytest.mark.parametrize("deviation,passed", [(0.0, True), (0.5, False)])
def test_kelvin_invariance_fails_on_a_deviation(monkeypatch, deviation, passed):
    monkeypatch.setattr(bubbles, "kelvin_fixes_bubble",
                        lambda *args, **kwargs: deviation)
    c = next(c for c in reports.suite_bubble(reports.RunConfig(suite="bubble"))
             if c["name"] == "kelvin-invariance")
    assert c["passed"] == passed
    assert (c["margin"] > 0.0) == passed


@pytest.mark.parametrize("suite", ["constants", "bubble", "extend"])
@pytest.mark.parametrize("scale", [1e-6, 100.0])
def test_margin_sign_matches_verdict(suite, scale):
    # a check passes exactly when its reported margin is positive, at any
    # tolerance scale
    cfg = reports.RunConfig(suite=suite, tol_scale=scale)
    for c in reports.run_suite(cfg)["checks"]:
        if c["margin"] is not None:
            assert (c["margin"] > 0.0) == c["passed"], c["name"]


def test_import_loads_no_scipy():
    # the package and its command run on numpy and the standard library
    code = ("import sys, fraclab, fraclab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_verify_loads_no_numpy_ma(tmp_path):
    # numpy.ma comes in only where a bare import of numpy brings it
    code = ("import sys, numpy; bare = 'numpy.ma' in sys.modules; "
            "from fraclab import cli; "
            f"status = cli.main(['verify', '--suite', 'all', '--out', {str(tmp_path)!r}]); "
            "print(status, 'numpy.ma' in sys.modules, bare)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    status, loaded, bare = out.split()[-3:]
    assert status == "0" and loaded == bare


@pytest.mark.parametrize("command", ["constants", "fraclap", "bubble",
                                     "extend", "construct"])
def test_bad_sigma_is_a_usage_error_for_every_command(capsys, command):
    # each command builds its Params through the same check as verify
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--sigma", "1.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].endswith(
        "sigma must lie in (0, 1), got 1.5")
