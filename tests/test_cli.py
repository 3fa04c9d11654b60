"""CLI tests: JSON/CSV shapes, exit codes, determinism, seed resolution."""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import polybohr
from polybohr import WitnessNotFoundError, cli, extremal


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_bisect(f, lo, hi, iters=200):
    """Plain bisection, independent of the package's solver."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# -- radius -----------------------------------------------------------------

def test_radius_json_shape_and_key_order(capsys):
    code, out, err = run_cli(
        ["radius", "--theorem", "convex", "--n", "2", "--m", "1", "--t", "0.75"],
        capsys)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert list(payload) == ["radius", "rho_root", "residual", "branch", "bracket"]
    assert payload["radius"] == 0.25
    assert payload["rho_root"] == 0.5
    assert payload["residual"] <= 1e-12
    assert payload["branch"] == "convex-rho-quadratic"
    lo, hi = payload["bracket"]
    assert lo <= payload["rho_root"] <= hi


def test_radius_deriv_small_weight_branch(capsys):
    # below lam = 1/2 the sharp radius is still the weighted quartic's root
    code, out, _ = run_cli(
        ["radius", "--theorem", "deriv", "--lambda", "0.3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "deriv-rho-quartic"
    lam = 0.3
    oracle = reference_bisect(
        lambda p: 2 * lam * p ** 4 + (4 * lam - 1) * p ** 3
        + (2 * lam - 1) * p ** 2 + 3 * p - 1, 0.0, math.sqrt(2.0) - 1.0)
    assert abs(payload["rho_root"] - oracle) <= 1e-12


def test_radius_rejects_wrong_weight_flag(capsys):
    code, _, err = run_cli(
        ["radius", "--theorem", "convex", "--lambda", "1.0"], capsys)
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run_cli(
        ["radius", "--theorem", "deriv", "--t", "0.5"], capsys)
    assert code == 1
    code, _, err = run_cli(
        ["radius", "--theorem", "convex", "--t", "1.5"], capsys)
    assert code == 1
    code, _, err = run_cli(
        ["radius", "--theorem", "deriv", "--lambda", "1.0", "--n", "0"], capsys)
    assert code == 1


def test_usage_errors_exit_one(capsys):
    # unknown subcommand and unknown kind go through the argparse override
    with pytest.raises(SystemExit) as exc:
        cli.main(["radius", "--theorem", "cubic", "--t", "0.5"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_no_command_prints_usage_and_exits_one(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in err.lower()
    assert out == ""


def test_radius_scales_with_variable_count(capsys):
    # rho = 1/3 at weight 0, so two variables halve the geometric radius
    code, out, _ = run_cli(
        ["radius", "--theorem", "convex", "--n", "2", "--m", "1", "--t", "0"],
        capsys)
    assert code == 0
    assert json.loads(out)["radius"] == pytest.approx(1 / 6, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["radius", "--theorem", "deriv", "--lambda", "inf"],
    ["radius", "--theorem", "sq_deriv", "--lambda", "nan"],
    ["verify", "--theorem", "deriv", "--lambda", "inf"],
    ["verify", "--theorem", "sq_deriv", "--lambda", "inf"],
    ["table", "--theorem", "deriv", "--n-list", "1", "--m-list", "1",
     "--lambda-list", "0.5,inf"],
    ["verify", "--theorem", "convex", "--t", "0.5", "--inflate-radius", "nan"],
    ["verify", "--theorem", "convex", "--t", "0.5", "--inflate-radius", "inf"],
    ["sharpness", "--theorem", "convex", "--t", "0.5", "--delta", "nan"],
    ["sharpness", "--theorem", "convex", "--t", "0.5", "--delta", "inf"],
    ["sweep", "--theorem", "deriv", "--param", "lambda", "--from", "1",
     "--to", "inf", "--steps", "3"],
    ["sweep", "--theorem", "deriv", "--param", "n", "--from", "nan",
     "--to", "3", "--lambda", "1"],
], ids=["radius-deriv-inf", "radius-sq-deriv-nan", "verify-deriv-inf",
        "verify-sq-deriv-inf", "table-deriv-inf", "verify-inflate-nan",
        "verify-inflate-inf", "sharpness-delta-nan", "sharpness-delta-inf",
        "sweep-to-inf", "sweep-from-nan"])
def test_non_finite_weight_exits_one(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["radius", "--theorem", "deriv", "--lambda", "1e308"],
    ["radius", "--theorem", "sq_deriv", "--lambda", "1e308"],
    ["table", "--theorem", "deriv", "--n-list", "1", "--m-list", "1",
     "--lambda-list", "1e308"],
    ["verify", "--theorem", "sq_deriv", "--lambda", "1e308"],
], ids=["radius-deriv", "radius-sq-deriv", "table-deriv", "verify-sq-deriv"])
def test_overflowing_weight_exits_one(argv, capsys):
    # a coefficient overflows to inf and the root comes out NaN, which the
    # residual gate must refuse rather than print
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: residual nan")
    assert err.count("\n") == 1


def test_residual_failure_exits_one_without_traceback(capsys, monkeypatch):
    def failing_solve(problem):
        raise ArithmeticError("residual 1e-09 exceeds 1e-12 for deriv-rho-quartic")
    monkeypatch.setattr(cli, "radius_for", failing_solve)
    code, out, err = run_cli(
        ["radius", "--theorem", "deriv", "--lambda", "1.0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: residual 1e-09 exceeds 1e-12 for deriv-rho-quartic\n"


# -- verify -------------------------------------------------------------------

def test_verify_passes_at_stated_radius(capsys):
    code, out, _ = run_cli(
        ["verify", "--theorem", "deriv", "--n", "2", "--m", "1",
         "--lambda", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "kind", "n", "m", "weight", "seed", "radius", "inflate_radius",
        "rho_max", "a_grid", "rho_grid", "max_value_below_radius",
        "dominance_min_margin", "violations_below_radius",
        "violations_dominance", "ok"]
    assert payload["ok"] is True
    assert payload["violations_below_radius"] == []
    assert payload["violations_dominance"] == []
    assert payload["max_value_below_radius"] < 1.0 + 1e-12
    assert payload["dominance_min_margin"] >= -1e-12
    assert payload["kind"] == "deriv"
    assert payload["weight"] == 1.0


def test_verify_negative_control_exits_two(capsys):
    code, out, _ = run_cli(
        ["verify", "--theorem", "convex", "--t", "0.3",
         "--inflate-radius", "0.01"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations_below_radius"]
    a, rho, val = payload["violations_below_radius"][0]
    assert val > 1.0 + 1e-12
    assert 0.0 <= a < 1.0


def test_verify_rejects_tiny_grids(capsys):
    code, _, err = run_cli(
        ["verify", "--theorem", "convex", "--t", "0.3", "--a-grid", "5"], capsys)
    assert code == 1
    assert "grid" in err
    code, _, _ = run_cli(
        ["verify", "--theorem", "convex", "--t", "0.3", "--rho-grid", "9"], capsys)
    assert code == 1


def test_verify_conservative_branch_still_valid(capsys):
    # small weights: the stated radius is the weighted quartic's root, larger
    # than the paper's weight-free one, and still safe (verify passes)
    code, out, _ = run_cli(
        ["verify", "--theorem", "sq_deriv", "--lambda", "0.5"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_dense_grids(capsys):
    code, out, _ = run_cli(
        ["verify", "--theorem", "convex", "--t", "0", "--a-grid", "200",
         "--rho-grid", "200"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run_cli(
        ["verify", "--theorem", "deriv", "--n", "2", "--m", "2",
         "--lambda", "2", "--a-grid", "100", "--rho-grid", "100"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_on_the_family_pole_exits_one(capsys):
    # +300% puts a grid point on a * rho = 1 (a = 7/8, rho = 8/7), where the
    # family's tail has a pole; other inflated grids still print their JSON
    code, out, err = run_cli(
        ["verify", "--theorem", "convex", "--t", "0", "--n", "4", "--m", "2",
         "--rho-grid", "113", "--inflate-radius", "3"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "a * rho = 1" in err
    code, out, _ = run_cli(
        ["verify", "--theorem", "convex", "--t", "0", "--n", "4", "--m", "2",
         "--rho-grid", "112", "--inflate-radius", "3"], capsys)
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_verify_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("BOHR_SEED", "777")
    code, out, _ = run_cli(
        ["verify", "--theorem", "convex", "--t", "0.5"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 777
    code, out, _ = run_cli(
        ["verify", "--theorem", "convex", "--t", "0.5", "--seed", "42"], capsys)
    assert json.loads(out)["seed"] == 42
    monkeypatch.delenv("BOHR_SEED")
    code, out, _ = run_cli(
        ["verify", "--theorem", "convex", "--t", "0.5"], capsys)
    assert json.loads(out)["seed"] == 1234


def test_verify_bad_seed_fails_before_the_grid(capsys, monkeypatch):
    monkeypatch.setenv("BOHR_SEED", "abc")

    def no_sweep(*args):
        raise AssertionError("the grid was reached before the seed was checked")
    monkeypatch.setattr(cli, "verify_radius", no_sweep)
    code, out, err = run_cli(
        ["verify", "--theorem", "convex", "--t", "0.5",
         "--a-grid", "500", "--rho-grid", "100"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: BOHR_SEED must be an integer, got 'abc'\n"


def test_option_inventory_is_pinned(capsys):
    # a new flag has to be added here on purpose; --seed lives on verify only
    common = ["--theorem", "--n", "--m", "--t", "--lambda", "--out"]
    expected = {
        "radius": common,
        "verify": common + ["--a-grid", "--rho-grid", "--inflate-radius", "--seed"],
        "sharpness": common + ["--delta"],
        "sweep": common + ["--param", "--from", "--to", "--steps"],
        "table": ["--theorem", "--n-list", "--m-list", "--t-list", "--lambda-list",
                  "--out"],
    }
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    found = {name: [opt for action in sub._actions
                    if not isinstance(action, argparse._HelpAction)
                    for opt in action.option_strings]
             for name, sub in subparsers.choices.items()}
    assert {name: sorted(opts) for name, opts in found.items()} == \
        {name: sorted(opts) for name, opts in expected.items()}
    assert sum(len(opts) for opts in found.values()) == 39
    with pytest.raises(SystemExit) as exc:
        cli.main(["radius", "--theorem", "convex", "--t", "0.5", "--seed", "5"])
    assert exc.value.code == 1
    capsys.readouterr()


# -- sharpness ------------------------------------------------------------------

def test_sharpness_reports_witness(capsys):
    code, out, _ = run_cli(
        ["sharpness", "--theorem", "convex", "--n", "2", "--t", "0.3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["kind", "n", "m", "weight", "delta", "radius",
                             "rho", "a", "value"]
    assert payload["value"] > 1.0
    assert payload["delta"] == 1e-3
    assert 0.0 <= payload["a"] < 1.0


def test_sharpness_solves_the_radius_once(capsys, monkeypatch):
    calls = 0
    real = extremal.radius_for

    def counted(problem):
        nonlocal calls
        calls += 1
        return real(problem)
    monkeypatch.setattr(cli, "radius_for", counted)
    monkeypatch.setattr(extremal, "radius_for", counted)
    code, out, _ = run_cli(
        ["sharpness", "--theorem", "deriv", "--n", "2", "--lambda", "1"], capsys)
    assert code == 0
    assert calls == 1
    problem = polybohr.RadiusProblem(polybohr.FunctionalKind.DERIV, 2, 1, lam=1.0)
    assert json.loads(out)["radius"] == real(problem).radius


def test_sharpness_small_weight_reports_witness(capsys):
    # the weighted quartic's root is sharp below lam = 1/2 as well
    code, out, err = run_cli(
        ["sharpness", "--theorem", "deriv", "--lambda", "0.25"], capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out)["value"] > 1.0


def test_sharpness_missing_witness_exits_two(capsys, monkeypatch):
    def no_witness(problem, delta):
        raise WitnessNotFoundError("no witness up to a = 0.999")
    monkeypatch.setattr(cli, "sharpness_witness", no_witness)
    code, out, err = run_cli(
        ["sharpness", "--theorem", "deriv", "--lambda", "0.25"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("verification failure:")


@pytest.mark.parametrize("argv", [
    ["--theorem", "deriv", "--lambda", "0.02", "--delta", "1e-13"],
    ["--theorem", "sq_deriv", "--lambda", "0.5", "--delta", "1e-14"],
], ids=["deriv", "sq_deriv"])
def test_sharpness_unresolved_delta_exits_two(argv, capsys):
    # no a-grid point exceeds 1 this close to the radius; nothing is printed
    # rather than a value that is above 1 only after rounding
    code, out, err = run_cli(["sharpness"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("verification failure: no witness")


# -- sweep ------------------------------------------------------------------------

def test_sweep_t_csv(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["sweep", "--theorem", "convex", "--param", "t", "--from", "0",
         "--to", "1", "--steps", "11", "--out", str(out_file)], capsys)
    assert code == 0
    data = out_file.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    lines = data.decode().splitlines()
    assert lines[0] == "param,radius,rho_root,residual"
    assert len(lines) == 12
    radii = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(x < y for x, y in zip(radii, radii[1:]))  # grows with t
    assert radii[0] == pytest.approx(1 / 3, abs=1e-12)
    assert radii[-1] == 1.0
    # every numeric field round-trips through the 12-significant-digit format
    for line in lines[1:]:
        for tok in line.split(","):
            assert format(float(tok), ".12g") == tok


def test_sweep_lambda_crosses_branch_point(capsys):
    code, out, _ = run_cli(
        ["sweep", "--theorem", "deriv", "--param", "lambda", "--from", "0.25",
         "--to", "2", "--steps", "8"], capsys)
    assert code == 0
    lines = out.splitlines()
    radii = [float(line.split(",")[1]) for line in lines[1:]]
    # the weighted quartic grows strictly with lam for rho > 0, so its root
    # falls strictly along the whole sweep, across lam = 1/2 included
    assert all(x > y for x, y in zip(radii, radii[1:]))


def test_sweep_n_integer_range(capsys):
    code, out, _ = run_cli(
        ["sweep", "--theorem", "deriv", "--param", "n", "--from", "1",
         "--to", "4", "--lambda", "1.0"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]
    radii = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(x > y for x, y in zip(radii, radii[1:]))


def test_sweep_errors(capsys):
    code, _, err = run_cli(
        ["sweep", "--theorem", "deriv", "--param", "n", "--from", "1.5",
         "--to", "4", "--lambda", "1.0"], capsys)
    assert code == 1
    assert "integer" in err
    code, _, err = run_cli(
        ["sweep", "--theorem", "convex", "--param", "t", "--from", "0",
         "--to", "1"], capsys)
    assert code == 1
    assert "--steps" in err
    code, _, err = run_cli(
        ["sweep", "--theorem", "convex", "--param", "t", "--from", "0.9",
         "--to", "0.1", "--steps", "5"], capsys)
    assert code == 1
    code, _, err = run_cli(
        ["sweep", "--theorem", "deriv", "--param", "n", "--from", "1",
         "--to", "4"], capsys)  # missing --lambda
    assert code == 1
    # a weight of the other kind is refused, as by radius
    code, _, err = run_cli(
        ["sweep", "--theorem", "convex", "--param", "n", "--from", "1",
         "--to", "3", "--t", "0.5", "--lambda", "2"], capsys)
    assert code == 1
    code, _, err = run_cli(
        ["sweep", "--theorem", "convex", "--param", "t", "--from", "0",
         "--to", "1", "--steps", "3", "--lambda", "3"], capsys)
    assert code == 1
    # the swept weight's own flag, and --steps on an integer sweep, are
    # refused rather than silently dropped
    for argv in (["--theorem", "convex", "--param", "t", "--from", "0", "--to", "1",
                  "--steps", "3", "--t", "0.5"],
                 ["--theorem", "deriv", "--param", "lambda", "--from", "0.5",
                  "--to", "1", "--steps", "3", "--lambda", "7"],
                 ["--theorem", "deriv", "--param", "n", "--from", "1", "--to", "3",
                  "--lambda", "1", "--steps", "0"],
                 ["--theorem", "deriv", "--param", "m", "--from", "1", "--to", "3",
                  "--lambda", "1", "--steps", "5"]):
        code, out, err = run_cli(["sweep"] + argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# -- table ---------------------------------------------------------------------------

def test_table_full_grid(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _, _ = run_cli(
        ["table", "--theorem", "sq_deriv", "--n-list", "1,2",
         "--m-list", "1,2", "--lambda-list", "1,2", "--out", str(out_file)],
        capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "n,m,param,radius,rho_root,residual"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1" and float(first[2]) == 1.0


def test_table_convex_grid_residuals_certified(capsys):
    code, out, _ = run_cli(
        ["table", "--theorem", "convex", "--n-list", "1,2,3",
         "--m-list", "1,2", "--t-list", "0,0.5,0.75,1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 25
    for line in lines[1:]:
        assert float(line.split(",")[5]) <= 1e-12


def test_table_single_cell_classical(capsys):
    code, out, _ = run_cli(
        ["table", "--theorem", "convex", "--n-list", "1", "--m-list", "1",
         "--t-list", "0"], capsys)
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(1 / 3, abs=1e-12)


def test_table_empty_lists_header_only(capsys):
    code, out, _ = run_cli(
        ["table", "--theorem", "convex", "--t-list", ""], capsys)
    assert code == 0
    assert out == "n,m,param,radius,rho_root,residual\n"


def test_table_rejects_cross_weight_lists(capsys):
    code, _, err = run_cli(
        ["table", "--theorem", "convex", "--n-list", "1", "--m-list", "1",
         "--lambda-list", "1.0"], capsys)
    assert code == 1
    assert "--t-list" in err
    code, _, err = run_cli(
        ["table", "--theorem", "deriv", "--n-list", "1", "--m-list", "1",
         "--t-list", "0.5"], capsys)
    assert code == 1


# -- determinism -------------------------------------------------------------------

def test_identical_invocations_identical_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", "--theorem", "deriv", "--n", "3", "--m", "2",
            "--lambda", "0.75"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# -- entry points ----------------------------------------------------------------------

def test_console_script_and_module_entry():
    argv = ["radius", "--theorem", "convex", "--t", "0.75"]
    # the child imports the same package as this test, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(polybohr.__file__).parents[1]))
    module = subprocess.run([sys.executable, "-m", "polybohr"] + argv,
                            capture_output=True, text=True, env=env)
    assert module.returncode == 0
    assert json.loads(module.stdout)["rho_root"] == 0.5
    script = shutil.which("polybohr")
    if script is None:
        pytest.skip("the polybohr console script is not on PATH; it exists "
                    "only once the package is installed")
    console = subprocess.run([script] + argv, capture_output=True, text=True)
    assert console.returncode == 0
    assert console.stdout == module.stdout
