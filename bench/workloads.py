"""Seeded case pools, the op of each workload, and the checks of its outputs.

Each workload draws a fixed-size pool of cases from its seed and runs the pool
in whole cycles, one op at a time (a closed loop with one client).  The make-up
of a pool -- how many cases of each subcommand, kind, weight branch and size --
is fixed; the seed draws the numbers inside it (weights, n, m, a, rho).  So a
cycle costs about the same for every seed, the median and the tail always land
inside the same tier of cases rather than on the edge between two tiers, and
max_rel_err depends on the seed alone.

Workloads reach polybohr through module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

import oracle
from oracle import (CSV_RTOL, EMPIRICAL_RTOL, RADIUS_RTOL, RESIDUAL_MAX,
                    SERIES_RTOL, WITNESS_RTOL, Check)

WORKLOADS = ("cli_cold", "solve", "certify", "series")

KINDS = ("convex", "deriv", "sq_deriv")
WEIGHT_FLAG = {"convex": "--t", "deriv": "--lambda", "sq_deriv": "--lambda"}
LIST_FLAG = {"convex": "--t-list", "deriv": "--lambda-list", "sq_deriv": "--lambda-list"}
# weight draws on each side of the branch point; "sharp" for convex is all of [0, 1)
WEIGHT_RANGE = {
    ("deriv", "small"): (0.02, 0.5),
    ("deriv", "sharp"): (0.5, 6.0),
    ("sq_deriv", "small"): (0.02, 1.0),
    ("sq_deriv", "sharp"): (1.0, 6.0),
}
EXACT_BRANCH_POINT = {"convex": 0.75, "deriv": 0.5, "sq_deriv": 1.0}
WITNESS_DELTA = 1e-3          # sharpness_witness default
SMALL_GRID, BIG_GRID = (200, 50), (500, 100)
NEGATIVE_CONTROL = 0.01       # verify --inflate-radius on sharp-branch problems
ZERO_ORDER_SAMPLES = 16
SERIES_TRUNCATION = 1e-12     # cases keep (a rho)^D below this


@dataclass
class Case:
    """One op's inputs: what to run, how many items it does, how to check it."""

    label: str
    run: Callable
    check: Callable            # (result, Check) -> "ok" | "witness_not_found"
    items: int
    sizes: dict = field(default_factory=dict)
    fingerprint: Callable | None = None  # compact stand-in for a large result
    memo: tuple | None = None  # (result or fingerprint, outcome) of the last check


def _weight(rng, kind, branch):
    if kind == "convex":
        return rng.random()
    return rng.uniform(*WEIGHT_RANGE[(kind, branch)])


def _w(x) -> str:
    return repr(float(x))


# -- running ------------------------------------------------------------------

class CliRunner:
    """Runs a polybohr CLI argv in this process (polybohr.cli.main) or cold."""

    def __init__(self, cold: bool, env=None, cwd=None):
        self.cold = cold
        self.env = env
        self.cwd = cwd
        if not cold:
            import polybohr.cli
            self.cli = polybohr.cli

    def __call__(self, argv):
        if self.cold:
            proc = subprocess.run([sys.executable, "-m", "polybohr", *argv],
                                  capture_output=True, text=True, env=self.env,
                                  cwd=self.cwd, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()


def evaluate(case: Case, result):
    """Outcome of one op: (tag, max_rel_err, problems); tag is ok, witness_not_found or failed."""
    key = case.fingerprint(result) if case.fingerprint else result
    if case.memo is not None and case.memo[0] == key:
        return case.memo[1]
    chk = Check()
    try:
        tag = case.check(result, chk)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        chk.problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    outcome = ("failed" if chk.problems else tag, chk.max_rel_err, chk.problems)
    case.memo = (key, outcome)
    return outcome


# -- reference checks shared by the CLI cases ----------------------------------

@lru_cache(maxsize=None)
def _refs(kind, w):
    return oracle.rho_references(kind, w)


def _check_radius(chk, what, kind, w, n, m, radius, rho, residual, rtol):
    refs = _refs(kind, w)
    chk.close(f"{what} rho_root", rho, refs, rtol)
    chk.close(f"{what} radius", radius,
              tuple(oracle.geometric_radius(r, n, m) for r in refs), rtol)
    chk.close(f"{what} radius vs (rho/n)^(1/m)", radius,
              oracle.geometric_radius(rho, n, m), rtol)
    chk.require(0.0 <= residual <= RESIDUAL_MAX, f"{what} residual {residual!r}")


def _check_witness(chk, kind, w, a, value, rho):
    refs = _refs(kind, w)
    chk.close("witness rho", rho, tuple((1.0 + WITNESS_DELTA) * r for r in refs), RADIUS_RTOL)
    ref = oracle.family_value(kind, w, a, rho)
    chk.require(value > 1.0 and ref > 1.0, f"witness value {value!r} (closed form {ref!r}) not above 1")
    chk.close("witness value", value, ref, WITNESS_RTOL)


def _missing_witness(chk, kind, w):
    """No witness: the known small-weight defect, or a failure anywhere else."""
    chk.require(oracle.is_small_weight(kind, w),
                f"no witness for {kind} weight {w!r} on a sharp branch")
    return "witness_not_found"


def _exit_ok(chk, result):
    code, out, err = result
    chk.require(code == 0, f"exit {code}: {err.strip()[:200]}")
    return code == 0


def radius_case(kind, w, n, m, runner):
    argv = ["radius", "--theorem", kind, WEIGHT_FLAG[kind], _w(w), "--n", str(n), "--m", str(m)]

    def check(result, chk):
        if _exit_ok(chk, result):
            p = json.loads(result[1])
            _check_radius(chk, "radius", kind, w, n, m, p["radius"], p["rho_root"],
                          p["residual"], RADIUS_RTOL)
            lo, hi = p["bracket"]
            chk.require(lo <= p["rho_root"] <= hi, "rho_root outside its bracket")
        return "ok"

    return Case("radius", lambda: runner(argv), check, 1)


def _check_rows(chk, out, header, expected):
    lines = out.split("\n")
    chk.require(lines[0] == header and lines[-1] == "", "CSV header or trailing newline")
    rows = lines[1:-1]
    chk.require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
    return [row.split(",") for row in rows]


def table_case(kind, ns, ms, ws, runner):
    argv = ["table", "--theorem", kind, "--n-list", ",".join(map(str, ns)),
            "--m-list", ",".join(map(str, ms)), LIST_FLAG[kind], ",".join(map(_w, ws))]
    expected = [(n, m, w) for n in ns for m in ms for w in ws]

    def check(result, chk):
        if _exit_ok(chk, result):
            rows = _check_rows(chk, result[1], "n,m,param,radius,rho_root,residual", expected)
            for (n, m, w), f in zip(expected, rows):
                chk.require((int(f[0]), int(f[1])) == (n, m), f"row {f[:2]} is not n={n}, m={m}")
                chk.close("table param", float(f[2]), w, CSV_RTOL)
                _check_radius(chk, "table", kind, w, n, m, float(f[3]), float(f[4]),
                              float(f[5]), CSV_RTOL)
        return "ok"

    return Case("table", lambda: runner(argv), check, len(expected),
                {"rows": len(expected)})


def sweep_case(kind, param, start, stop, steps, n, m, w, runner):
    """A sweep along t / lambda (steps points) or along n / m (integer steps)."""
    argv = ["sweep", "--theorem", kind, "--param", param, "--from", _w(start), "--to", _w(stop),
            "--n", str(n), "--m", str(m)]
    if param in ("t", "lambda"):
        argv += ["--steps", str(steps)]
        values = [float(x) for x in np.linspace(start, stop, steps)]
        expected = [(n, m, v) for v in values]
    else:
        argv += [WEIGHT_FLAG[kind], _w(w)]
        values = list(range(int(start), int(stop) + 1))
        expected = [(v, m, w) if param == "n" else (n, v, w) for v in values]

    def check(result, chk):
        if _exit_ok(chk, result):
            rows = _check_rows(chk, result[1], "param,radius,rho_root,residual", expected)
            for v, (nn, mm, ww), f in zip(values, expected, rows):
                chk.close("sweep param", float(f[0]), v, CSV_RTOL)
                _check_radius(chk, "sweep", kind, ww, nn, mm, float(f[1]), float(f[2]),
                              float(f[3]), CSV_RTOL)
        return "ok"

    return Case(f"sweep-{param}", lambda: runner(argv), check, len(expected),
                {"rows": len(expected)})


def _verify_argv(kind, w, n, m, grid, inflate):
    argv = ["verify", "--theorem", kind, WEIGHT_FLAG[kind], _w(w), "--n", str(n), "--m", str(m),
            "--a-grid", str(grid[0]), "--rho-grid", str(grid[1])]
    if inflate:
        argv += ["--inflate-radius", _w(inflate)]
    return argv


def _check_verify(chk, result, kind, w, n, m, grid, inflate):
    code, out, err = result
    p = json.loads(out)
    if inflate:
        chk.require(code == 2 and p["ok"] is False and p["violations_below_radius"],
                    f"negative control at +{inflate} exited {code} with ok={p['ok']}")
    else:
        chk.require(code == 0 and p["ok"] is True, f"verify exited {code} with ok={p['ok']}")
        chk.require(p["max_value_below_radius"] <= 1.0 + 1e-12, "family above 1 below the radius")
        chk.require(p["dominance_min_margin"] >= -1e-12, "majorant below the family")
    chk.require((p["a_grid"], p["rho_grid"]) == grid, "grid sizes not echoed")
    refs = _refs(kind, w)
    chk.close("verify radius", p["radius"],
              tuple(oracle.geometric_radius(r, n, m) for r in refs), RADIUS_RTOL)
    chk.close("verify rho_max", p["rho_max"], n * (p["radius"] * (1.0 + inflate)) ** m,
              RADIUS_RTOL)


def verify_case(kind, w, n, m, runner, grid=SMALL_GRID):
    argv = _verify_argv(kind, w, n, m, grid, 0.0)

    def check(result, chk):
        _check_verify(chk, result, kind, w, n, m, grid, 0.0)
        return "ok"

    return Case("verify", lambda: runner(argv), check, 1)


def sharpness_case(kind, w, n, m, runner):
    argv = ["sharpness", "--theorem", kind, WEIGHT_FLAG[kind], _w(w), "--n", str(n), "--m", str(m)]

    def check(result, chk):
        code, out, err = result
        if code == 2 and err.startswith("verification failure"):
            return _missing_witness(chk, kind, w)
        if _exit_ok(chk, result):
            p = json.loads(out)
            refs = _refs(kind, w)
            chk.close("sharpness radius", p["radius"],
                      tuple(oracle.geometric_radius(r, n, m) for r in refs), RADIUS_RTOL)
            _check_witness(chk, kind, w, p["a"], p["value"], p["rho"])
        return "ok"

    return Case("sharpness", lambda: runner(argv), check, 1)


# -- pools -------------------------------------------------------------------------

def _shuffle_after_first(rng, pool):
    """Shuffle the op order but keep slot 0 first: a cheap case, run once
    untimed as the warm-up op, so set-up costs the same for every seed."""
    rest = pool[1:]
    rng.shuffle(rest)
    return pool[:1] + rest


def cli_cold_pool(rng, runner):
    """15 cold calls: 10 array-free (radius, table, n/m sweep), 5 that need numpy."""
    def nm():
        return rng.randint(1, 8), rng.randint(1, 4)

    pool = []
    for kind, branch in (("convex", "sharp"), ("deriv", "small"), ("deriv", "sharp"),
                         ("sq_deriv", "small")):
        pool.append(radius_case(kind, _weight(rng, kind, branch), *nm(), runner))
    for kind in KINDS:
        ns = sorted(rng.sample(range(1, 9), 2))
        ms = sorted(rng.sample(range(1, 5), 2))
        ws = [EXACT_BRANCH_POINT[kind], _weight(rng, kind, "small" if kind != "convex" else "sharp")]
        pool.append(table_case(kind, ns, ms, ws, runner))
    for kind, param, branch in (("convex", "n", "sharp"), ("deriv", "n", "sharp"),
                                ("sq_deriv", "m", "small")):
        n, m = nm()
        stop = 8 if param == "n" else 4
        pool.append(sweep_case(kind, param, 1, stop, None, n, m, _weight(rng, kind, branch),
                               runner))
    for kind, branch in (("convex", "sharp"), ("deriv", "sharp"), ("sq_deriv", "small")):
        pool.append(sharpness_case(kind, _weight(rng, kind, branch), *nm(), runner))
    for kind, branch in (("deriv", "small"), ("sq_deriv", "sharp")):
        pool.append(verify_case(kind, _weight(rng, kind, branch), *nm(), runner))
    for case in pool:
        case.items = 1  # one invocation
    return pool


def solve_pool(rng, runner):
    """15 requests: 13 of 96 rows (tables over n=1..8 x m=1..4, weight sweeps), 2 n/m sweeps."""
    ns, ms = list(range(1, 9)), list(range(1, 5))
    pool = []
    t = [rng.random() for _ in range(3)]
    pool.append(table_case("convex", ns, ms, [0.75, t[0], 1.0], runner))
    pool.append(table_case("convex", ns, ms, [t[1], 0.0, t[2]], runner))
    pool.append(sweep_case("convex", "t", 0.0, 1.0, 96, rng.randint(1, 8), rng.randint(1, 4),
                           None, runner))
    for kind in ("deriv", "sq_deriv"):
        for _ in range(3):
            ws = [EXACT_BRANCH_POINT[kind], _weight(rng, kind, "small"), _weight(rng, kind, "sharp")]
            pool.append(table_case(kind, ns, ms, ws, runner))
        for _ in range(2):
            pool.append(sweep_case(kind, "lambda", _weight(rng, kind, "small"),
                                   _weight(rng, kind, "sharp"), 96, rng.randint(1, 8),
                                   rng.randint(1, 4), None, runner))
    pool.append(sweep_case("convex", "n", 1, 8, None, 1, rng.randint(1, 4), rng.random(), runner))
    pool.append(sweep_case("deriv", "m", 1, 4, None, rng.randint(1, 8), 1,
                           _weight(rng, "deriv", rng.choice(("small", "sharp"))), runner))
    return _shuffle_after_first(rng, pool)


def certify_case(kind, w, n, m, grid, runner):
    """verify at `grid`, sharpness_witness, empirical_radius, and on sharp
    branches the negative control that must exit 2."""
    from polybohr import extremal, radii

    problem = radii.RadiusProblem(radii.FunctionalKind(kind), n, m,
                                  **({"t": w} if kind == "convex" else {"lam": w}))
    control = not oracle.is_small_weight(kind, w)
    argv = _verify_argv(kind, w, n, m, grid, 0.0)
    control_argv = _verify_argv(kind, w, n, m, grid, NEGATIVE_CONTROL)

    def run():
        result = {"verify": runner(argv)}
        try:
            wit = extremal.sharpness_witness(problem)
            result["witness"] = (wit.a, wit.value, wit.rho)
        except extremal.WitnessNotFoundError:
            result["witness"] = None
        result["empirical"] = extremal.empirical_radius(problem)
        if control:
            result["control"] = runner(control_argv)
        return result

    def check(result, chk):
        _check_verify(chk, result["verify"], kind, w, n, m, grid, 0.0)
        chk.close("empirical rho", n * result["empirical"] ** m, oracle.family_rho(kind, w),
                  EMPIRICAL_RTOL)
        if control:
            _check_verify(chk, result["control"], kind, w, n, m, grid, NEGATIVE_CONTROL)
        if result["witness"] is None:
            return _missing_witness(chk, kind, w)
        _check_witness(chk, kind, w, *result["witness"])
        return "ok"

    verifies = 2 if control else 1
    return Case(f"certify-{kind}", run, check, grid[0] * grid[1] * verifies,
                {"verify_calls": verifies, "grid_points": grid[0] * grid[1] * verifies})


def certify_pool(rng, runner):
    """15 problems; 3 are small-weight draws, kept although sharpness_witness
    raises WitnessNotFoundError on them (the known defect).

    A sharp-branch problem runs verify twice (the negative control), so on
    one grid it costs about twice a small-weight one, and CONVEX's majorant
    is cheaper than the others'.  The make-up puts the median in the middle
    of the 7 sharp deriv / sq_deriv problems on the 200x50 grid, and the
    tail among the 2 sharp ones on the 500x100 grid.
    """
    slots = [  # (kind, branch, grid)
        ("convex", "sharp", SMALL_GRID), ("convex", "sharp", SMALL_GRID),
        ("deriv", "small", SMALL_GRID), ("sq_deriv", "small", SMALL_GRID),
        *[("deriv", "sharp", SMALL_GRID)] * 4, *[("sq_deriv", "sharp", SMALL_GRID)] * 3,
        ("convex", "sharp", BIG_GRID), ("deriv", "small", BIG_GRID),
        ("deriv", "sharp", BIG_GRID), ("sq_deriv", "sharp", BIG_GRID),
    ]
    exact = {0: 0.75, 4: 0.5, 8: 1.0}  # branch points drawn exactly
    pool = []
    for i, (kind, branch, grid) in enumerate(slots):
        w = exact.get(i, _weight(rng, kind, branch))
        pool.append(certify_case(kind, w, rng.randint(1, 8), rng.randint(1, 4), grid, runner))
    return _shuffle_after_first(rng, pool)


def series_case(kind, w, a, n, m, rho, degree, sample_seed):
    """Series route against the closed form, then the coefficient and
    zero-order bound checks on the family f_a composed with z -> z^m."""
    from polybohr import bounds, extremal, mvseries

    func = extremal.Functional(extremal.FunctionalKind(kind),
                               **({"t": w} if kind == "convex" else {"lam": w}))
    params = extremal.ExtremalParams(a, n, m)
    terms = math.comb(degree + n, n)

    def run():
        value = extremal.extremal_functional_from_series(func, params, rho, max_degree=degree)
        f = extremal.extremal_series(params, max_degree=degree)
        g = f.compose_power_map(mvseries.SchwarzPowerMap(n, m))
        bad = bounds.coefficient_bound_check(g)
        h = g - mvseries.TruncatedSeries.constant(a, n)
        worst = bounds.zero_multiplicity_bound_check(h, m, samples=ZERO_ORDER_SAMPLES,
                                                     seed=sample_seed)
        return {"value": value, "violations": frozenset(map(tuple, bad)), "worst": worst,
                "terms": (len(f.coeffs), len(g.coeffs), len(h.coeffs))}

    def check(result, chk):
        chk.close("series route", result["value"], oracle.family_value(kind, w, a, rho),
                  SERIES_RTOL)
        certain, borderline = oracle.coefficient_violations(a, n, m, degree)
        got = result["violations"]
        chk.require(certain <= got <= certain | borderline,
                    f"coefficient_bound_check: {len(got)} violations, expected {len(certain)}")
        cap = oracle.zero_order_ratio_cap(a, n, degree)
        chk.require(0.0 < result["worst"] <= cap * (1.0 + 1e-9),
                    f"zero-order ratio {result['worst']!r} outside (0, {cap!r}]")
        chk.require(result["terms"] == (terms, terms, terms - 1),
                    f"terms {result['terms']}, expected {terms} per series")
        return "ok"

    def fingerprint(result):
        return (result["value"], result["worst"], result["terms"], len(result["violations"]),
                hash(result["violations"]))

    return Case(f"series-n{n}-D{degree}", run, check, 3 * terms - 1,
                {"n": n, "m": m, "D": degree, "terms": 3 * terms - 1}, fingerprint)


def series_pool(rng):
    """19 cases over n in {1,2,3}, m in {1,2,3}, D in {24,40}; kinds fixed per slot.

    The kind is fixed per slot because it changes the cost (CONVEX skips the
    directional derivative); drawing it would move the median between seeds.
    """
    slots = [  # (n, m, D, kind)
        (1, 1, 24, "deriv"), (1, 2, 40, "convex"), (1, 3, 24, "sq_deriv"), (1, 1, 40, "deriv"),
        (2, 1, 24, "convex"), (2, 2, 24, "deriv"), (2, 3, 24, "sq_deriv"),
        (2, 1, 40, "convex"), (2, 2, 40, "deriv"), (2, 3, 40, "sq_deriv"), (2, 2, 40, "deriv"),
        (3, 1, 24, "convex"), (3, 2, 24, "deriv"), (3, 3, 24, "sq_deriv"), (3, 1, 24, "convex"),
        (3, 1, 40, "deriv"), (3, 2, 40, "sq_deriv"), (3, 3, 40, "deriv"), (3, 2, 40, "sq_deriv"),
    ]
    pool = []
    for n, m, degree, kind in slots:
        rho = rng.uniform(0.05, 0.6)
        a_max = min(0.95, 0.9 * SERIES_TRUNCATION ** (1.0 / degree) / rho)
        a = rng.uniform(0.05, a_max)
        branch = "sharp" if kind == "convex" else rng.choice(("small", "sharp"))
        pool.append(series_case(kind, _weight(rng, kind, branch), a, n, m, rho, degree,
                                rng.randrange(2**31)))
    return _shuffle_after_first(rng, pool)


def build_pool(workload: str, seed: int, cold_env=None, cwd=None):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_cold":
        return cli_cold_pool(rng, CliRunner(cold=True, env=cold_env, cwd=cwd))
    if workload == "series":
        return series_pool(rng)
    runner = CliRunner(cold=False)
    return solve_pool(rng, runner) if workload == "solve" else certify_pool(rng, runner)
