"""CLI tests: JSON/CSV shapes, exit codes, determinism, option inventory."""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polybohr
from polybohr import WitnessNotFoundError, cli, extremal
from _reference import reference_bisect

BIG = str(10**400)  # an int that no float holds


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # finite, but (1 + delta) * rho_root >= 1 leaves the family's domain |s| < 1
    ["sharpness", "--theorem", "convex", "--t", "1"],
    ["sharpness", "--theorem", "deriv", "--lambda", "1", "--delta", "1e300"],
    ["sweep", "--theorem", "deriv", "--param", "lambda", "--from", "1",
     "--to", "inf", "--steps", "3"],
    ["sweep", "--theorem", "deriv", "--param", "n", "--from", "nan",
     "--to", "3", "--lambda", "1"],
], ids=["radius-deriv-inf", "radius-sq-deriv-nan", "verify-deriv-inf",
        "verify-sq-deriv-inf", "table-deriv-inf", "verify-inflate-nan",
        "verify-inflate-inf", "sharpness-delta-nan", "sharpness-delta-inf",
        "sharpness-convex-t-1", "sharpness-rho-past-1", "sweep-to-inf", "sweep-from-nan"])
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
    # a coefficient overflows to inf, so the float stage has no finite value
    # at the cap to start from, and the solver refuses rather than print
    code, out, err = run_cli(argv, capsys)
    label = "deriv" if "deriv" in argv else "sq-deriv"
    assert code == 1
    assert out == ""
    cap = polybohr.FunctionalKind(argv[2]).rho_cap
    assert err == (f"error: {label}-rho-quartic overflows a float: its values at 0.0 "
                   f"and {cap!r} are nan and inf\n")


@pytest.mark.parametrize("theorem, lam", [
    ("deriv", "1e30"), ("deriv", "1e300"), ("sq_deriv", "1e30"),
])
def test_huge_weights_solve_with_a_proving_bracket(theorem, lam, capsys):
    # the residual gate these once failed is gone: the exact certificate
    # decides, and its bracket's exact end signs differ
    code, out, err = run_cli(["radius", "--theorem", theorem, "--lambda", lam], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    lo, hi = payload["bracket"]
    assert lo < hi == math.nextafter(lo, 1.0) and payload["rho_root"] in (lo, hi)
    w = Fraction(float(lam))
    if theorem == "deriv":
        coeffs = (-1, 3, 2 * w - 1, 4 * w - 1, 2 * w)
    else:
        coeffs = (-1, 2, w, 2 * w - 1, w)

    def exact(x):
        return sum(c * Fraction(x) ** i for i, c in enumerate(coeffs))

    assert exact(lo) < 0 < exact(hi)


def test_residual_failure_exits_one_without_traceback(capsys, monkeypatch):
    # an ArithmeticError from the solver, such as its OverflowError, is a
    # usage failure with one error line
    def failing_solve(problem):
        raise ArithmeticError("no exact sign change between 0.5 and 0.6180339887498949")
    monkeypatch.setattr(cli, "radius_for", failing_solve)
    code, out, err = run_cli(
        ["radius", "--theorem", "deriv", "--lambda", "1.0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: no exact sign change between 0.5 and 0.6180339887498949\n"


@pytest.mark.parametrize("argv", [
    ["radius", "--theorem", "convex", "--t", "0.5"],
    ["table", "--theorem", "deriv", "--n-list", "1", "--m-list", "1",
     "--lambda-list", "1"],
], ids=["radius", "table"])
def test_unwritable_out_path_exits_one(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert err.count("\n") == 1
    assert not target.parent.exists()


# -- verify -------------------------------------------------------------------

def test_verify_passes_at_stated_radius(capsys):
    code, out, _ = run_cli(
        ["verify", "--theorem", "deriv", "--n", "2", "--m", "1",
         "--lambda", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "kind", "n", "m", "weight", "radius", "inflate_radius",
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


def test_verify_dominance_failure_exits_two(capsys, monkeypatch):
    # a majorant of 0 fails to dominate at nearly every grid point; the JSON
    # lists the first 20 such points
    monkeypatch.setattr(extremal, "majorant_functional", lambda func, a, rho: 0.0)
    code, out, _ = run_cli(["verify", "--theorem", "convex", "--t", "0.3"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations_below_radius"] == []
    assert 0 < len(payload["violations_dominance"]) <= 20
    assert all(margin < -1e-12 for _, _, margin in payload["violations_dominance"])


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


def test_verify_inflate_that_overflows_rho_max_exits_one(capsys):
    # (r (1 + inflate))^m overflows a float before the grid is built
    code, out, err = run_cli(
        ["verify", "--theorem", "deriv", "--lambda", "1", "--m", "4",
         "--inflate-radius", "1e100"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: inflate = 1e+100 overflows rho_max; lower inflate\n"


def test_verify_far_past_the_pole_writes_nothing_to_stderr():
    # rho near 3e307 overflows the family row to inf and nan; a child process
    # runs with Python's default warning filters, which would print numpy's
    # RuntimeWarning on stderr
    argv = ["verify", "--theorem", "deriv", "--lambda", "1", "--n", "8",
            "--inflate-radius", "1e308"]
    env = dict(os.environ, PYTHONPATH=str(Path(polybohr.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "polybohr"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["ok"] is False


def test_option_inventory_is_pinned(capsys):
    # a new flag has to be added here on purpose
    common = ["--theorem", "--n", "--m", "--t", "--lambda", "--out"]
    expected = {
        "radius": common,
        "verify": common + ["--a-grid", "--rho-grid", "--inflate-radius"],
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
    assert sum(len(opts) for opts in found.values()) == 38
    for command in ("radius", "verify"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--theorem", "convex", "--t", "0.5", "--seed", "5"])
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


@pytest.mark.parametrize("delta,hint", [
    ("1e-3", False), ("1e-300", False), ("0.1", True),
], ids=["t-1", "t-1-tiny-delta", "t-0.9999-large-delta"])
def test_sharpness_outside_the_domain_suggests_lower_delta_only_below_rho_1(delta, hint, capsys):
    # at t = 1 the stated radius is rho = 1 itself, so no delta reaches a witness
    t = "0.9999" if hint else "1"
    code, out, err = run_cli(
        ["sharpness", "--theorem", "convex", "--t", t, "--delta", delta], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "outside the family's domain" in err
    assert ("lower delta" in err) is hint


def test_sharpness_delta_too_small_to_move_rho_exits_one(capsys):
    # (1 + 1e-20) * rho_root rounds back to rho_root, the stated sharp radius,
    # where the family's value 1.0000000000000002 is above 1 only by rounding
    code, out, err = run_cli(
        ["sharpness", "--theorem", "deriv", "--lambda", "1", "--delta", "1e-20"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "too small to move rho" in err


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


def test_sweep_too_large_for_memory_exits_one(capsys):
    # the 10^18 values of m are one list, which CPython refuses at once
    code, out, err = run_cli(
        ["sweep", "--theorem", "convex", "--param", "m", "--from", "1",
         "--to", "1e18", "--t", "0.5"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: out of memory: the request is too large\n"


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


def test_table_and_sweep_solve_each_weight_once(capsys, monkeypatch):
    calls = 0
    real = cli.radius_for

    def counted(problem):
        nonlocal calls
        calls += 1
        return real(problem)
    monkeypatch.setattr(cli, "radius_for", counted)
    cases = [
        (["table", "--theorem", "deriv", "--n-list", "1,2,3,4,5,6,7,8",
          "--m-list", "1,2,3,4", "--lambda-list", "0.5,1,2"], 3, 96),
        (["sweep", "--theorem", "convex", "--param", "n", "--from", "1",
          "--to", "8", "--t", "0.5"], 1, 8),
        (["sweep", "--theorem", "sq_deriv", "--param", "lambda", "--from", "0.5",
          "--to", "2.5", "--steps", "5", "--n", "2"], 5, 5),
        (["table", "--theorem", "convex", "--n-list", "1", "--m-list", "1",
          "--t-list", "0.5,0.5"], 1, 2),
    ]
    for argv, solves, rows in cases:
        calls = 0
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert calls == solves
        assert len(out.splitlines()) == rows + 1
    # the repeated weight still prints its own row
    lines = out.splitlines()
    assert lines[1] == lines[2]
    assert lines[1].startswith("1,1,0.5,")


@pytest.mark.parametrize("theorem,flag,weights", [
    ("convex", "--t-list", ["-0.0", "0", "0.75", "1"]),
    ("deriv", "--lambda-list", ["1e-12", "0.5", "1", "1e6"]),
    ("sq_deriv", "--lambda-list", ["1e-12", "0.5", "1", "1e6"]),
])
def test_table_rows_match_one_radius_for_per_row(theorem, flag, weights, capsys):
    kind = polybohr.FunctionalKind(theorem)
    own = "t" if theorem == "convex" else "lam"
    expected = ["n,m,param,radius,rho_root,residual"]
    for n in range(1, 9):
        for m in range(1, 5):
            for w in weights:
                res = polybohr.radius_for(
                    polybohr.RadiusProblem(kind, n, m, **{own: float(w)}))
                expected.append(",".join(
                    [str(n), str(m)] + [format(float(x), ".12g") for x in
                                        (w, res.radius, res.rho_root, res.residual)]))
    code, out, err = run_cli(
        ["table", "--theorem", theorem, "--n-list", "1,2,3,4,5,6,7,8",
         "--m-list", "1,2,3,4", f"{flag}={','.join(weights)}"], capsys)
    assert (code, err) == (0, "")
    assert out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("argv,repeats", [
    ("sweep --theorem convex --param t --from 0 --to 1 --steps 9 --n 3 --m 2", False),
    ("sweep --theorem convex --param t --from 0.5 --to 0.5000000000000002 --steps 7", True),
    ("sweep --theorem deriv --param lambda --from 1e-12 --to 1e6 --steps 9 --n 2 --m 3", False),
    ("sweep --theorem sq_deriv --param lambda --from 1 --to 1.0000000000000004 --steps 6 "
     "--m 4", True),
    ("sweep --theorem deriv --param n --from 1 --to 8 --m 3 --lambda 0.5", False),
    ("sweep --theorem sq_deriv --param m --from 1 --to 6 --n 5 --lambda 2", False),
    ("sweep --theorem convex --param m --from 1 --to 4 --t 0.75", False),
], ids=["t", "t-repeats", "lambda", "lambda-repeats", "n", "m", "m-convex"])
def test_sweep_rows_match_one_radius_for_per_row(argv, repeats, capsys):
    args = cli.build_parser().parse_args(argv.split())
    kind = polybohr.FunctionalKind(args.theorem)
    swept = "lam" if args.param == "lambda" else args.param
    if args.steps is None:
        values = list(range(int(args.start), int(args.stop) + 1))
    else:
        values = np.linspace(args.start, args.stop, args.steps).tolist()
    assert (len(set(values)) < len(values)) == repeats
    expected = ["param,radius,rho_root,residual"]
    for v in values:
        fields = {"n": args.n, "m": args.m, "t": args.t, "lam": args.lam, swept: v}
        res = polybohr.radius_for(polybohr.RadiusProblem(kind, **fields))
        expected.append(",".join(format(float(x), ".12g") for x in
                                 (v, res.radius, res.rho_root, res.residual)))
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, err) == (0, "")
    assert out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("lists,message", [
    (["--n-list", "1,0", "--lambda-list", "1,1e308"],
     "deriv-rho-quartic overflows a float: its values at 0.0 and 0.41421356237309515 "
     "are nan and inf"),
    (["--n-list", "0,1", "--lambda-list", "1,1e300"],
     "n must be an integer >= 1, got 0"),
    (["--n-list", "1", "--lambda-list", "1,2,nan"],
     "lam must be positive and finite, got nan"),
    # the weight is checked before r = (rho / n)^(1/m) turns n or m into a float
    (["--n-list", "1", "--m-list", BIG, "--lambda-list", "nan"],
     "lam must be positive and finite, got nan"),
    (["--n-list", BIG, "--lambda-list", "nan"],
     "lam must be positive and finite, got nan"),
    (["--n-list", "1", "--m-list", BIG, "--lambda-list", "1"],
     "int too large to convert to float"),
])
def test_table_reports_the_first_failing_row(lists, message, capsys):
    # a later --m-list in lists replaces this one
    code, out, err = run_cli(
        ["table", "--theorem", "deriv", "--m-list", "1"] + lists, capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    ("table --theorem deriv --n-list 1 --m-list 1,0 --lambda-list 1,2",
     "m must be an integer >= 1, got 0"),
    ("sweep --theorem convex --param n --from 0 --to 3 --t 0.5",
     "n must be an integer >= 1, got 0"),
    ("sweep --theorem convex --param n --from 1 --to 3 --t 0.5 --lambda 1",
     "convex takes t only"),
    ("sweep --theorem deriv --param m --from 1 --to 3 --n 0 --lambda nan",
     "n must be an integer >= 1, got 0"),
    ("sweep --theorem deriv --param t --from 0.1 --to 0.2 --steps 3",
     "deriv takes lam only"),
    (f"sweep --theorem convex --param n --from 1 --to 2 --m {BIG} --t nan",
     "t must lie in [0, 1], got nan"),
    (f"sweep --theorem deriv --param lambda --from 1 --to 2 --steps 2 --m {BIG}",
     "int too large to convert to float"),
], ids=["table-m-list", "sweep-n-from", "sweep-n-pairing", "sweep-m-fixed-n",
        "sweep-t-pairing", "sweep-n-big-m-nan-t", "sweep-lambda-big-m"])
def test_sweeps_and_m_lists_report_the_first_failing_row(argv, message, capsys):
    # each row is checked n, then m, then the weight and its pairing, in row order
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("lists", [
    ["--n-list", "0", "--m-list", "1"],
    ["--n-list", "0", "--m-list=", "--lambda-list", "1"],
    ["--n-list", "1", "--m-list", "0"],
], ids=["no-weights", "no-m", "bad-m-no-weights"])
def test_table_with_no_rows_checks_no_value(lists, capsys):
    # n and m are checked as rows reach them, so an empty list leaves no row to fail
    code, out, err = run_cli(["table", "--theorem", "deriv"] + lists, capsys)
    assert (code, out, err) == (0, "n,m,param,radius,rho_root,residual\n", "")


def test_table_and_sweep_build_one_problem_per_distinct_weight(capsys, monkeypatch):
    built = 0
    real = cli.RadiusProblem

    def counted(*args, **kwargs):
        nonlocal built
        built += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, "RadiusProblem", counted)
    cases = [
        (["table", "--theorem", "deriv", "--n-list", "1,2,3,4,5,6,7,8",
          "--m-list", "1,2,3,4", "--lambda-list", "0.5,1,2"], 3),
        (["sweep", "--theorem", "convex", "--param", "n", "--from", "1",
          "--to", "8", "--t", "0.5"], 1),
        (["sweep", "--theorem", "deriv", "--param", "m", "--from", "1",
          "--to", "4", "--n", "3", "--lambda", "2"], 1),
        (["sweep", "--theorem", "sq_deriv", "--param", "lambda", "--from", "0.5",
          "--to", "2.5", "--steps", "7", "--n", "2"], 7),
    ]
    for argv, problems in cases:
        built = 0
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert built == problems


@pytest.mark.parametrize("argv,message", [
    (["table", "--theorem", "convex", "--n-list", "-1,2", "--m-list", "1",
      "--t-list", "0.5"], "n must be an integer >= 1, got -1"),
    (["table", "--theorem", "deriv", "--n-list", "1", "--m-list", "1",
      "--lambda-list", "-0.5,1"], "lam must be positive and finite, got -0.5"),
    (["radius", "--theorem", "deriv", "--lambda", "-1e-3"],
     "lam must be positive and finite, got -0.001"),
    (["sweep", "--theorem", "convex", "--t", "0.5", "--param", "n", "--from", "-1e0",
      "--to", "2"], "n must be an integer >= 1, got -1"),
], ids=["table-n-list", "table-lambda-list", "radius-lambda-exponent", "sweep-from-exponent"])
def test_negative_values_in_the_spaced_form_reach_the_library_check(argv, message, capsys):
    # argparse alone takes only -1 and -1.5 for negative numbers and refuses
    # -1,2 or -1e-3 with "expected one argument"
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


# -- output ------------------------------------------------------------------------

RETURNING_ARGV = [
    ["radius", "--theorem", "convex", "--t", "0.75"],
    ["verify", "--theorem", "convex", "--t", "0.3", "--a-grid", "20", "--rho-grid", "10",
     "--inflate-radius", "0.01"],
    ["sharpness", "--theorem", "deriv", "--lambda", "0.25"],
    ["sweep", "--theorem", "deriv", "--param", "lambda", "--from", "0.5", "--to", "1",
     "--steps", "3"],
    ["table", "--theorem", "sq_deriv", "--n-list", "1,2", "--m-list", "1",
     "--lambda-list", "1"],
]


@pytest.mark.parametrize("argv", RETURNING_ARGV, ids=lambda argv: argv[0])
def test_commands_return_their_text_and_main_writes_it(argv, capsys):
    args = cli.build_parser().parse_args(argv)
    result = args.func(args)
    assert capsys.readouterr().out == ""
    assert isinstance(result, tuple) and len(result) == 2
    text, code = result
    assert isinstance(text, str) and isinstance(code, int)
    assert run_cli(argv, capsys) == (code, text, "")


@pytest.mark.parametrize("argv,code", [
    (["table", "--theorem", "deriv", "--n-list", "1", "--m-list", "1",
      "--lambda-list", "1,2,nan"], 1),
    (["sweep", "--theorem", "deriv", "--param", "lambda", "--from", "0", "--to", "1",
      "--steps", "3"], 1),
    (["sharpness", "--theorem", "deriv", "--lambda", "0.25"], 2),
], ids=["table-third-row-fails", "sweep-lambda-from-0", "sharpness-no-witness"])
def test_out_is_not_written_without_a_result(argv, code, tmp_path, capsys, monkeypatch):
    def no_witness(problem, delta):
        raise WitnessNotFoundError("no witness up to a = 0.999")
    monkeypatch.setattr(cli, "sharpness_witness", no_witness)
    target = tmp_path / "out"
    assert run_cli(argv + ["--out", str(target)], capsys)[:2] == (code, "")
    assert not target.exists()


def test_verify_failure_still_writes_its_out_file(tmp_path, capsys):
    argv = ["verify", "--theorem", "convex", "--t", "0.3", "--inflate-radius", "0.01"]
    target = tmp_path / "verify.json"
    assert run_cli(argv + ["--out", str(target)], capsys) == (2, "", "")
    code, out, _ = run_cli(argv, capsys)
    assert code == 2
    assert target.read_bytes() == out.encode()


# -- shared parser -----------------------------------------------------------------

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def _golden_stdout(argv):
    return next(case["stdout"] for case in GOLDEN if case["argv"] == argv)


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    builds = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "polybohr":  # the top-level parser, not a subparser
            builds.append(self)
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv in RETURNING_ARGV[:3]:
        cli.main(argv)
    capsys.readouterr()
    assert len(builds) <= 1


def test_shared_parser_keeps_no_state_between_calls(capsys):
    radius = ["radius", "--theorem", "convex", "--t", "0.5"]
    table = ["table", "--theorem", "convex", "--n-list", "1,2,3", "--m-list", "1,2",
             "--t-list", "0,0.5,0.75,1"]
    for argv, code in [(radius + ["--bogus"], 1), (["radius", "--help"], 0)]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
    capsys.readouterr()
    verify = ["verify", "--theorem", "convex", "--t", "0.3", "--inflate-radius", "0.01"]
    assert run_cli(verify, capsys)[0] == 2
    code, out, err = run_cli(["sweep", "--theorem", "deriv", "--param", "lambda",
                              "--from", "0.1", "--to", "1"], capsys)
    assert (code, out) == (1, "") and "--steps is required" in err
    assert run_cli(radius, capsys) == (0, _golden_stdout(radius), "")
    assert run_cli(table, capsys) == (0, _golden_stdout(table), "")


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
    # the child imports the same package as this test, installed or not, and
    # turns warnings into errors itself: the suite's filter does not reach it
    env = dict(os.environ, PYTHONPATH=str(Path(polybohr.__file__).parents[1]))
    module = subprocess.run([sys.executable, "-W", "error", "-m", "polybohr"] + argv,
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
