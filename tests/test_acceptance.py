"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion pins a deliverable of the package at its stated tolerance:
exact constants, closed forms, root certificates, both directions of the
radius statements (safety below, witness beyond), oracle equivalence of the
empirical thresholds, the lemma evaluators, and the series-route cross-check.
Criterion runtimes are asserted where a budget is stated.

The witness-existence half of criterion 7 covers small weights too (lam < 1/2
for the first derivative functional, lam < 1 for the squared one). There the
paper's weight-free quartic gives a safe radius that is not sharp: the
witness family first crosses 1 at the root of the weighted quartic. The
library states that root for every weight, so a witness exists just beyond
it; a missing witness is reported with full diagnostics rather than hidden.
"""

import math
import time

import numpy as np
import pytest

from polybohr import (DEFAULT_SEED, Direction, ExtremalParams, Functional,
                      FunctionalKind, MultiIndex, RadiusProblem, RhoPolynomial,
                      TruncatedSeries, WitnessNotFoundError, coefficient_bound_check,
                      convex_rho_closed_form, deriv_rho_polynomial,
                      empirical_radius, extremal_functional,
                      extremal_functional_from_series, extremal_series,
                      multi_indices, phi_psi_monotone, radius_for,
                      rogosinski_threshold, sharpness_witness,
                      sq_deriv_rho_polynomial, zero_multiplicity_bound_check)

CONVEX, DERIV, SQ_DERIV = (FunctionalKind.CONVEX, FunctionalKind.DERIV,
                           FunctionalKind.SQ_DERIV)

N_GRID = (1, 2, 4)
M_GRID = (1, 2, 3)
T_GRID = (0.0, 0.3, 0.75, 0.9)
LAM_GRID = (0.25, 0.5, 1.0, 2.0)

# the paper's weight-free quartics, from their literal coefficients
PAPER_DERIV_QUARTIC = RhoPolynomial((-1.0, 3.0, 0.0, 1.0, 1.0), "deriv-rho-quartic")
PAPER_SQ_DERIV_QUARTIC = RhoPolynomial((-1.0, 2.0, 1.0, 1.0, 1.0),
                                       "sq-deriv-rho-quartic")


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print("\n" + line, flush=True)


def best_of(fn, repeats: int = 5):
    """Value and best wall time of fn over a few repeats."""
    value, best = None, float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return value, best


def a_grid(count: int = 200) -> np.ndarray:
    return np.linspace(0.0, 1.0, count, endpoint=False)


def problems_for(kind: FunctionalKind, weights) -> list:
    out = []
    for n in N_GRID:
        for m in M_GRID:
            for w in weights:
                if kind is FunctionalKind.CONVEX:
                    out.append(RadiusProblem(kind, n, m, t=w))
                else:
                    out.append(RadiusProblem(kind, n, m, lam=w))
    return out


def below_radius_max(problem: RadiusProblem) -> float:
    """Largest functional value on the witness family at rho = n * R^m."""
    res = radius_for(problem)
    rho = problem.n * res.radius ** problem.m
    return max(extremal_functional(problem, float(a), rho) for a in a_grid(200))


def test_criterion_01_classical_recovery(capsys):
    res, dt = best_of(lambda: radius_for(RadiusProblem(CONVEX, 1, 1, t=0.0)))
    err = abs(res.radius - 1.0 / 3.0)
    assert err <= 1e-12
    assert dt < 1e-3
    announce(capsys, f"[criterion 1] PASS convex radius (n=m=1, t=0) = {res.radius:.15f} "
                     f"(err {err:.2e}, {dt * 1e3:.3f} ms)")


def test_criterion_02_degenerate_weight_and_closed_form(capsys):
    assert radius_for(RadiusProblem(CONVEX, 1, 1, t=0.75)).radius == 0.5

    def sweep():
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 101):
            t = float(t)
            got = radius_for(RadiusProblem(CONVEX, 1, 1, t=t)).radius
            if abs(t - 0.75) < 1e-9:
                want = 0.5
            else:
                want = (1.0 - 2.0 * math.sqrt(1.0 - t)) / (4.0 * t - 3.0)
            worst = max(worst, abs(got - want))
        return worst

    worst, dt = best_of(sweep, repeats=3)
    assert worst <= 1e-12
    assert dt < 10e-3
    announce(capsys, f"[criterion 2] PASS weight-3/4 radius exactly 0.5; 101-point "
                     f"closed-form sweep err {worst:.2e} ({dt * 1e3:.2f} ms)")


def test_criterion_03_small_weight_quartic_root(capsys):
    res, dt = best_of(lambda: radius_for(RadiusProblem(DERIV, 1, 1, lam=0.5)))
    assert abs(res.radius - 0.3191) <= 5e-4
    residual = abs(PAPER_DERIV_QUARTIC(res.rho_root))
    assert residual <= 1e-12
    assert dt < 1e-3
    announce(capsys, f"[criterion 3] PASS deriv radius (n=m=1, lam=1/2) = {res.radius:.10f} "
                     f"(vs 0.3191, quartic residual {residual:.2e}, {dt * 1e3:.3f} ms)")


def test_criterion_04_factorization_cross_check(capsys):
    # independent oracle: the weight-1 quartic factors as
    # (2 rho^2 + 3 rho - 1)(rho^2 + 1), whose positive root the quadratic
    # formula gives in closed form
    oracle = (math.sqrt(17.0) - 3.0) / 4.0
    worst = max(abs(deriv_rho_polynomial(1.0)(float(p))
                    - (2 * p * p + 3 * p - 1) * (p * p + 1))
                for p in np.linspace(0.0, 0.45, 91))
    assert worst < 1e-15
    got = radius_for(RadiusProblem(DERIV, 1, 1, lam=1.0)).rho_root
    err = abs(got - oracle)
    assert err <= 1e-10
    announce(capsys, f"[criterion 4] PASS deriv rho root (n=m=1, lam=1) = {got:.15f} vs "
                     f"(sqrt(17)-3)/4 (err {err:.2e}, factorization defect {worst:.2e})")


def test_criterion_05_univariate_shifted_thresholds(capsys):
    t0 = time.perf_counter()
    plain = rogosinski_threshold()
    squared = rogosinski_threshold(squared=True)
    dt = time.perf_counter() - t0
    err1 = abs(plain - (math.sqrt(5.0) - 2.0))
    err2 = abs(squared - 1.0 / 3.0)
    assert err1 <= 5e-4
    assert err2 <= 5e-4
    announce(capsys, f"[criterion 5] PASS shifted-head thresholds {plain:.6f} vs "
                     f"sqrt(5)-2 (err {err1:.1e}) and {squared:.6f} vs 1/3 "
                     f"(err {err2:.1e}) ({dt:.2f} s)")


def test_criterion_06_convex_grid_both_directions(capsys):
    t0 = time.perf_counter()
    worst_below = 0.0
    worst_margin = 0.0
    for problem in problems_for(FunctionalKind.CONVEX, T_GRID):
        top = below_radius_max(problem)
        worst_below = max(worst_below, top)
        assert top <= 1.0 + 1e-12, (problem.n, problem.m, problem.t, top)
        witness = sharpness_witness(problem, delta=1e-3)
        assert witness.value > 1.0
        worst_margin = max(worst_margin, witness.value - 1.0)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    announce(capsys, f"[criterion 6] PASS 36 convex configs: below-radius max "
                     f"{worst_below:.12f} <= 1+1e-12, all witnesses found "
                     f"(best overshoot {worst_margin:.2e}) ({dt:.2f} s)")


def test_criterion_07a_derivative_grids_below_radius(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for kind in (FunctionalKind.DERIV, FunctionalKind.SQ_DERIV):
        for problem in problems_for(kind, LAM_GRID):
            top = below_radius_max(problem)
            worst = max(worst, top)
            assert top <= 1.0 + 1e-12, (kind, problem.n, problem.m, problem.lam, top)
    dt = time.perf_counter() - t0
    assert dt < 20.0
    announce(capsys, f"[criterion 7a] PASS 72 derivative-functional configs stay "
                     f"below 1 up to the stated radius (max {worst:.12f}, {dt:.2f} s)")


def test_criterion_07b_derivative_grids_witness_existence(capsys):
    t0 = time.perf_counter()
    failures = []
    found = 0
    for kind in (FunctionalKind.DERIV, FunctionalKind.SQ_DERIV):
        for problem in problems_for(kind, LAM_GRID):
            try:
                witness = sharpness_witness(problem, delta=1e-3)
                assert witness.value > 1.0
                found += 1
            except WitnessNotFoundError:
                rho = 1.001 * radius_for(problem).rho_root
                avals = np.concatenate([a_grid(512),
                                        1.0 - 2.0 ** -np.arange(1, 21)])
                sup = max(extremal_functional(problem, float(a), rho) for a in avals)
                failures.append((kind.value, problem.n, problem.m,
                                 problem.lam, sup))
    dt = time.perf_counter() - t0
    assert dt < 20.0
    if not failures:
        announce(capsys, f"[criterion 7b] PASS witnesses found for all 72 "
                         f"derivative-functional configs ({dt:.2f} s)")
    else:
        lines = "\n".join(
            f"    {kind} n={n} m={m} lam={lam}: sup over family = {sup:.12f} <= 1"
            for kind, n, m, lam, sup in failures)
        announce(capsys,
                 f"[criterion 7b] FAIL witnesses found for {found} of 72 configs; "
                 f"{len(failures)} small-weight configs admit none just beyond "
                 f"the stated radius ({dt:.2f} s):\n{lines}\n"
                 f"  the family first crosses 1 at the weighted quartic root, "
                 f"which exceeds the stated radius for these weights")
    assert not failures, (
        f"{len(failures)} small-weight configs admit no witness just beyond "
        f"the stated radius; the witness family first crosses 1 at the root "
        f"of the weighted quartic, strictly above the stated radius for "
        f"lam < 1/2 (first-derivative form) and lam < 1 (squared form)")


def test_criterion_07c_branch_continuity(capsys):
    worst = 0.0
    for n in N_GRID:
        for m in M_GRID:
            a = radius_for(RadiusProblem(DERIV, n, m, lam=0.5)).radius
            b = radius_for(RadiusProblem(DERIV, n, m, lam=0.5 + 1e-15)).radius
            worst = max(worst, abs(a - b))
            c = radius_for(RadiusProblem(SQ_DERIV, n, m, lam=1.0)).radius
            d = radius_for(RadiusProblem(SQ_DERIV, n, m, lam=1.0 + 2e-16)).radius
            worst = max(worst, abs(c - d))
    assert worst <= 1e-12
    # at those weights the weighted quartics are the paper's, coefficient
    # for coefficient
    assert deriv_rho_polynomial(0.5).coefficients == PAPER_DERIV_QUARTIC.coefficients
    assert sq_deriv_rho_polynomial(1.0).coefficients == \
        PAPER_SQ_DERIV_QUARTIC.coefficients
    announce(capsys, f"[criterion 7c] PASS branch continuity at lam = 1/2 and "
                     f"lam = 1 (max jump {worst:.2e})")


def test_criterion_08_empirical_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = {}
    for kind in FunctionalKind:
        worst[kind] = 0.0
        for _ in range(12):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            if kind is FunctionalKind.CONVEX:
                problem = RadiusProblem(kind, n, m, t=float(rng.uniform(0.0, 0.9)))
            elif kind is FunctionalKind.DERIV:
                problem = RadiusProblem(kind, n, m, lam=float(rng.uniform(0.5, 4.0)))
            else:
                problem = RadiusProblem(kind, n, m, lam=float(rng.uniform(1.0, 4.0)))
            emp = empirical_radius(problem)
            cert = radius_for(problem).radius
            err = abs(emp - cert)
            worst[kind] = max(worst[kind], err)
            assert err <= 5e-4, (kind, problem.n, problem.m, problem.weight, err)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    detail = ", ".join(f"{k.value} {v:.2e}" for k, v in worst.items())
    announce(capsys, f"[criterion 8] PASS 12 seeded draws per functional agree "
                     f"with the certified radius (max err: {detail}) ({dt:.2f} s)")


def test_criterion_09_lemma_suite(capsys):
    t0 = time.perf_counter()
    # phi/psi monotonicity, exhaustive 0.01-resolution grids over the
    # admissible weight ranges
    xs = np.round(np.linspace(0.0, 1.0, 101), 10)
    failures = 0
    for squared, a_top in ((False, 0.5), (True, 1.0)):
        for A in np.round(np.arange(0.0, a_top + 1e-9, 0.01), 10):
            for i, x in enumerate(xs):
                for x0 in xs[i:]:
                    if not phi_psi_monotone(float(A), float(x), float(x0), squared):
                        failures += 1
    assert failures == 0

    # coefficient bound on the univariate Moebius truncations
    for a in np.arange(0.0, 0.99, 0.02):
        a = float(a)
        coeffs = {(0,): complex(a)}
        for k in range(1, 11):
            coeffs[(k,)] = complex(-(1.0 - a * a) * a ** (k - 1))
        series = TruncatedSeries(1, 10, coeffs)
        assert coefficient_bound_check(series) == []

    # directional derivative vs central finite differences
    rng = np.random.default_rng(77)
    fd_worst = 0.0
    for n in (1, 2, 3):
        coeffs = {}
        for k in range(0, 5):
            for alpha in multi_indices(n, k):
                coeffs[alpha] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        series = TruncatedSeries(n, 4, coeffs)
        raw = rng.uniform(0.2, 1.0, size=n)
        u = Direction(tuple(raw / raw.sum()))
        du = series.directional_derivative(u)
        h = 1e-5
        for _ in range(5):
            z = rng.uniform(-0.3, 0.3, size=n) + 1j * rng.uniform(-0.3, 0.3, size=n)
            zp = tuple(z + h * np.asarray(u.components))
            zm = tuple(z - h * np.asarray(u.components))
            fd = (series.eval(zp) - series.eval(zm)) / (2.0 * h)
            fd_worst = max(fd_worst, abs(du.eval(tuple(z)) - fd))
    assert fd_worst <= 1e-8

    # zero-multiplicity ratio over 10^4 samples for three vanishing families
    families = [
        (TruncatedSeries(1, 3, {(3,): complex(1.0)}), 3),
        (TruncatedSeries(2, 2, {(1, 1): complex(1.0)}), 2),
        (TruncatedSeries(2, 1, {(1, 0): complex(0.5), (0, 1): complex(0.5)}), 1),
    ]
    zm_worst = 0.0
    for series, k in families:
        ratio = zero_multiplicity_bound_check(series, k, samples=10_000)
        zm_worst = max(zm_worst, ratio)
        assert ratio <= 1.0 + 1e-9
    dt = time.perf_counter() - t0
    assert dt < 30.0
    announce(capsys, f"[criterion 9] PASS lemma suite: phi/psi grid clean, "
                     f"Moebius coefficients clean, derivative FD err "
                     f"{fd_worst:.2e}, zero-multiplicity max ratio {zm_worst:.9f} "
                     f"({dt:.2f} s)")


def test_criterion_10_series_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    kinds = [FunctionalKind.CONVEX, FunctionalKind.DERIV, FunctionalKind.SQ_DERIV]
    worst = 0.0
    for i in range(20):
        kind = kinds[i % 3]
        if kind is FunctionalKind.CONVEX:
            func = Functional(CONVEX, t=float(rng.uniform(0.0, 1.0)))
        elif kind is FunctionalKind.DERIV:
            func = Functional(DERIV, lam=float(rng.uniform(0.1, 3.0)))
        else:
            func = Functional(SQ_DERIV, lam=float(rng.uniform(0.1, 3.0)))
        a = float(rng.uniform(0.1, 0.9))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        rho = float(rng.uniform(0.05, 0.3))
        closed = extremal_functional(func, a, rho)
        series = extremal_functional_from_series(
            func, ExtremalParams(a, n, m), rho, max_degree=40)
        err = abs(series - closed)
        worst = max(worst, err)
        assert err <= 1e-8, (kind, a, n, m, rho, err)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    announce(capsys, f"[criterion 10] PASS series-route evaluation matches the "
                     f"closed forms at D=40 on 20 seeded points "
                     f"(max err {worst:.2e}) ({dt:.2f} s)")
