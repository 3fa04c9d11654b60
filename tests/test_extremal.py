"""Extremal-family tests: series coefficients, functional values, dominance,
sign-equivalence identities, witness search, and empirical thresholds."""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polybohr import (Direction, ExtremalParams, Functional, FunctionalKind,
                      MultiIndex, RadiusProblem, SchwarzPowerMap,
                      TruncatedSeries, Witness, WitnessNotFoundError,
                      empirical_radius, extremal_functional,
                      extremal_functional_from_series, extremal_series,
                      majorant_functional, multi_indices, phi_psi_monotone,
                      radius_for, rogosinski_threshold, rogosinski_value,
                      sharpness_witness, verify_radius,
                      zero_multiplicity_bound_check)
from polybohr import extremal
from _reference import reference_bisect

CONVEX, DERIV, SQ_DERIV = (FunctionalKind.CONVEX, FunctionalKind.DERIV,
                           FunctionalKind.SQ_DERIV)


# -- series form of the family ------------------------------------------------

def test_extremal_series_at_zero_parameter():
    # a = 0 gives f(z) = -(z_1 + ... + z_n) truncated to degree 1... the
    # Moebius factor collapses, higher slices vanish
    s = extremal_series(ExtremalParams(0.0, 3, 1), max_degree=6)
    assert s.coefficient(MultiIndex((0, 0, 0))) == 0.0
    for j in range(3):
        alpha = tuple(1 if i == j else 0 for i in range(3))
        assert s.coefficient(MultiIndex(alpha)) == -1.0
    assert s.degree_slice(2) == {}
    assert s.degree_slice(3) == {}


def test_extremal_series_known_coefficient():
    # n = 2, a = 1/2: coefficient of z1 z2 is -(1 - a^2) a * 2!/1!1! = -0.75
    s = extremal_series(ExtremalParams(0.5, 2, 1), max_degree=4)
    assert s.coefficient(MultiIndex((1, 1))) == -0.75
    assert s.coefficient(MultiIndex((0, 0))) == 0.5


def test_extremal_series_slice_sums():
    # the modulus sum over slice k is (1 - a^2) a^(k-1) n^k
    a, n = 0.7, 3
    s = extremal_series(ExtremalParams(a, n, 1), max_degree=7)
    for k in range(1, 8):
        total = sum(abs(c) for c in s.degree_slice(k).values())
        expected = (1 - a * a) * a ** (k - 1) * n ** k
        assert abs(total - expected) <= 1e-12 * expected


def test_extremal_series_eval_matches_moebius():
    # on the diagonal z = (w, ..., w) the series approximates (a - nw)/(1 - anw)
    a, n = 0.6, 2
    s = extremal_series(ExtremalParams(a, n, 1), max_degree=40)
    for w in (0.05, 0.1 + 0.1j, -0.2j):
        z = np.full(n, w, dtype=complex)
        sn = n * w
        exact = (a - sn) / (1 - a * sn)
        assert abs(s.eval(z) - exact) < 1e-12


def test_extremal_params_validation():
    with pytest.raises(ValueError):
        ExtremalParams(-0.1, 2, 1)
    with pytest.raises(ValueError):
        ExtremalParams(1.0, 2, 1)
    with pytest.raises(ValueError):
        ExtremalParams(0.5, 0, 1)
    with pytest.raises(ValueError):
        ExtremalParams(0.5, 2, 0)


# -- closed-form functional valuesable against inline oracles ------------------

@pytest.mark.parametrize("kind", [DERIV, SQ_DERIV], ids=lambda kind: kind.value)
@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_functional_rejects_non_finite_lam(kind, lam):
    with pytest.raises(ValueError):
        Functional(kind, lam=lam)


def test_extremal_functional_at_zero_parameter():
    # a = 0: convex value t*rho + (1-t)*rho = rho; deriv value 2*rho
    for rho in (0.1, 0.25):
        f_convex = Functional(CONVEX, t=0.3)
        assert extremal_functional(f_convex, 0.0, rho) == pytest.approx(rho, abs=1e-15)
        f_deriv = Functional(DERIV, lam=1.0)
        assert extremal_functional(f_deriv, 0.0, rho) == pytest.approx(2 * rho, abs=1e-15)


def test_extremal_functional_inline_oracle_convex():
    # t = 0 reduces to the pure Bohr sum of the family:
    #   a + (1 - a^2) rho / (1 - a rho)
    a, rho = 0.99, 0.34
    expected = a + (1 - a * a) * rho / (1 - a * rho)
    got = extremal_functional(Functional(CONVEX, t=0.0), a, rho)
    assert abs(got - expected) <= 1e-15


def test_extremal_functional_inline_oracle_deriv():
    # head + rho (1-a)(1+a)/(1+a rho)^2 + lam a rho^2 (1-a)(1+a)/(1-a rho)
    a, rho, lam = 0.5, 0.25, 1.5
    head = (rho + a) / (1 + a * rho)
    expected = head + rho * (1 - a) * (1 + a) / (1 + a * rho) ** 2 \
        + lam * a * rho * rho * (1 - a) * (1 + a) / (1 - a * rho)
    got = extremal_functional(Functional(DERIV, lam=lam), a, rho)
    assert abs(got - expected) <= 1e-15


def test_extremal_functional_inline_oracle_sq_deriv():
    # same chain with the head squared
    a, rho, lam = 0.4, 0.3, 2.0
    head = (rho + a) / (1 + a * rho)
    expected = head * head + rho * (1 - a) * (1 + a) / (1 + a * rho) ** 2 \
        + lam * a * rho * rho * (1 - a) * (1 + a) / (1 - a * rho)
    got = extremal_functional(Functional(SQ_DERIV, lam=lam), a, rho)
    assert abs(got - expected) <= 1e-14


def test_extremal_functional_validation():
    f = Functional(CONVEX, t=0.5)
    with pytest.raises(ValueError):
        extremal_functional(f, 1.0, 0.2)
    with pytest.raises(ValueError):
        extremal_functional(f, -0.1, 0.2)
    with pytest.raises(ValueError):
        extremal_functional(f, 0.9, -0.1)
    with pytest.raises(ValueError):
        extremal_functional(f, 0.9, 1.2)  # a * rho beyond the pole


def test_functional_construction_validation():
    with pytest.raises(ValueError):
        Functional(CONVEX, t=-0.2)
    with pytest.raises(ValueError):
        Functional(CONVEX, t=1.2)
    with pytest.raises(ValueError):
        Functional(DERIV, lam=0.0)
    with pytest.raises(ValueError):
        Functional(SQ_DERIV, lam=-1.0)
    with pytest.raises(ValueError):
        Functional(FunctionalKind.CONVEX, t=None, lam=None)


@pytest.mark.parametrize("kind,w", [(CONVEX, 0.3), (DERIV, 0.7), (SQ_DERIV, 2.0)],
                         ids=["convex", "deriv", "sq_deriv"])
def test_a_problem_is_its_functional(kind, w):
    # a RadiusProblem is a Functional at (n, m): every evaluator reads it
    # exactly as the equal-weight Functional, bit for bit
    problem = RadiusProblem(kind, 2, 3, **{kind.weight: w})
    func = Functional(kind, **{kind.weight: w})
    assert isinstance(problem, Functional)
    assert problem.weight == func.weight == w
    params = ExtremalParams(0.45, 2, 3)
    for rho in (0.0, 0.1, 0.25, 0.3):
        for value in (lambda f: extremal_functional(f, 0.45, rho),
                      lambda f: majorant_functional(f, 0.45, rho),
                      lambda f: extremal_functional_from_series(f, params, rho, max_degree=12)):
            assert value(problem).hex() == value(func).hex()
    with pytest.raises(TypeError):
        Functional(kind, w)  # the weight is keyword-only


# -- majorant form -------------------------------------------------------------

def test_majorant_exactly_one_at_unit_constant():
    # at a0 = 1 the bound collapses to exactly 1.0 in floating point
    for t in np.linspace(0.0, 1.0, 41):
        f = Functional(CONVEX, t=float(t))
        for rho in np.linspace(0.0, 0.99, 34):
            assert majorant_functional(f, 1.0, float(rho)) == 1.0
    for lam in (0.25, 0.5, 1.0, 3.0):
        for rho in np.linspace(0.0, DERIV.rho_cap, 20):
            assert majorant_functional(Functional(DERIV, lam=lam), 1.0, float(rho)) == 1.0
        for rho in np.linspace(0.0, SQ_DERIV.rho_cap, 20):
            assert majorant_functional(Functional(SQ_DERIV, lam=lam), 1.0, float(rho)) == 1.0


def test_majorant_dominates_extremal():
    # upper-bound chain evaluated at a0 = a must dominate the exact family value
    grids = {
        FunctionalKind.CONVEX: ([0.0, 0.3, 0.75, 1.0], np.linspace(0.0, 0.99, 20)),
        FunctionalKind.DERIV: ([0.25, 0.5, 1.0, 2.0], np.linspace(0.0, DERIV.rho_cap, 20)),
        FunctionalKind.SQ_DERIV: ([0.25, 1.0, 2.0], np.linspace(0.0, SQ_DERIV.rho_cap, 20)),
    }
    for kind, (weights, rhos) in grids.items():
        for w in weights:
            f = Functional(kind, **{kind.weight: w})
            for rho in rhos:
                rho = float(rho)
                for a in np.linspace(0.0, 0.995, 200):
                    a = float(a)
                    if a * rho >= 1.0:
                        continue
                    maj = majorant_functional(f, a, rho)
                    ext = extremal_functional(f, a, rho)
                    assert maj >= ext - 1e-12


def test_majorant_validation():
    f = Functional(DERIV, lam=1.0)
    with pytest.raises(ValueError):
        majorant_functional(f, 1.1, 0.2)
    with pytest.raises(ValueError):
        majorant_functional(f, 0.5, 0.5)  # beyond sqrt(2) - 1 cap
    with pytest.raises(ValueError):
        majorant_functional(Functional(CONVEX, t=0.5), 0.5, 1.0)
    with pytest.raises(ValueError):
        majorant_functional(f, 0.5, math.nan)
    # the domain is the kind's closed interval [0, cap], and rho < 1 for CONVEX
    for g in (f, Functional(SQ_DERIV, lam=1.0)):
        cap = g.kind.rho_cap
        assert majorant_functional(g, 0.5, cap) > 0.0
        with pytest.raises(ValueError, match=f"{g.kind.value} majorant"):
            majorant_functional(g, 0.5, math.nextafter(cap, 1.0))
    majorant_functional(Functional(CONVEX, t=0.5), 0.5, math.nextafter(1.0, 0.0))


# -- sign-equivalence identities -----------------------------------------------
# Each functional's deviation from 1 factors through a polynomial in a whose
# value at a = 1 is (up to sign) the radius polynomial at rho. These identities
# pin the closed forms to the root characterizations.

def test_convex_sign_identity():
    rng = np.random.default_rng(101)
    for _ in range(300):
        t = float(rng.uniform(0.0, 1.0))
        rho = float(rng.uniform(0.01, 0.95))
        a = float(rng.uniform(0.0, 0.99))
        v = extremal_functional(Functional(CONVEX, t=t), a, rho)
        lhs = (v - 1.0) * (1.0 - a * a * rho * rho) / (1.0 - a)
        g = -t * (1 - rho) * (1 - a * rho) + (1 - t) * (2 * a * rho + rho - 1) * (1 + a * rho)
        assert abs(lhs - g) < 1e-10
    # and at a -> 1 the factor tends to minus the radius quadratic
    for t in (0.0, 0.3, 0.75, 0.9):
        for rho in (0.1, 0.4, 0.6):
            g1 = -t * (1 - rho) * (1 - rho) + (1 - t) * (2 * rho + rho - 1) * (1 + rho)
            assert abs(g1 + CONVEX.polynomial(t)(rho)) < 1e-13


def test_deriv_sign_identity():
    def quartic(lam, rho, a):
        return (lam * rho**4 * a**4 + (lam * rho**4 + 2 * lam * rho**3) * a**3
                + ((2 * lam - 1) * rho**3 + lam * rho**2) * a**2
                + ((lam - 1) * rho**2 + rho) * a + 2 * rho - 1)
    rng = np.random.default_rng(102)
    for _ in range(300):
        lam = float(rng.uniform(0.05, 3.0))
        rho = float(rng.uniform(0.01, 0.41))
        a = float(rng.uniform(0.0, 0.99))
        v = extremal_functional(Functional(DERIV, lam=lam), a, rho)
        lhs = (v - 1.0) * (1.0 + a * rho) ** 2 * (1.0 - a * rho) / (1.0 - a)
        assert abs(lhs - quartic(lam, rho, a)) < 1e-10
    # and at a = 1 the quartic in a is the weighted radius quartic in rho
    for lam in (0.05, 0.5, 3.0):
        for rho in (0.1, 0.3, 0.4):
            assert abs(quartic(lam, rho, 1.0) - DERIV.polynomial(lam)(rho)) < 1e-13


def test_sq_deriv_sign_identity():
    rng = np.random.default_rng(103)
    for _ in range(300):
        lam = float(rng.uniform(0.05, 3.0))
        rho = float(rng.uniform(0.01, 0.6))
        a = float(rng.uniform(0.0, 0.99))
        v = extremal_functional(Functional(SQ_DERIV, lam=lam), a, rho)
        lhs = (v - 1.0) * (1.0 + a * rho) ** 2 * (1.0 - a * rho) / (1.0 - a * a)
        rhs = (rho * rho + rho - 1.0) * (1.0 - a * rho) + lam * a * rho * rho * (1.0 + a * rho) ** 2
        assert abs(lhs - rhs) < 1e-10
    # at a = 1 the factor equals the weighted radius quartic
    for lam in (1.0, 2.0, 5.0):
        for rho in (0.1, 0.3, 0.5):
            rhs1 = (rho * rho + rho - 1.0) * (1.0 - rho) + lam * rho * rho * (1.0 + rho) ** 2
            assert abs(rhs1 - SQ_DERIV.polynomial(lam)(rho)) < 1e-13


# -- witness search -------------------------------------------------------------

def test_sharpness_witness_convex():
    for t in (0.0, 0.3, 0.75, 0.9):
        problem = RadiusProblem(FunctionalKind.CONVEX, 2, 1, t=t)
        w = sharpness_witness(problem)
        assert isinstance(w, Witness)
        assert w.value > 1.0
        assert 0.0 <= w.a < 1.0
        assert w.rho == pytest.approx(1.001 * radius_for(problem).rho_root, rel=1e-12)
        # convex witnesses concentrate near the boundary of the parameter range
        assert w.a > 0.9


def test_sharpness_witness_deriv_and_sq_deriv():
    for lam in (0.5, 1.0, 2.0):
        w = sharpness_witness(RadiusProblem(FunctionalKind.DERIV, 3, 2, lam=lam))
        assert w.value > 1.0
    for lam in (1.0, 2.0):
        w = sharpness_witness(RadiusProblem(FunctionalKind.SQ_DERIV, 2, 1, lam=lam))
        assert w.value > 1.0


def test_small_weight_witness_family_crosses_at_stated_radius():
    # Below lam = 1/2 (DERIV) and lam = 1 (SQ_DERIV) the stated radius is the
    # weighted quartic's root, where the witness family first exceeds 1, so a
    # witness exists just past it and the empirical crossing matches it.
    for problem, family_root in (
            (RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=0.25),
             reference_bisect(
                 lambda p: 2 * 0.25 * p ** 4 + (4 * 0.25 - 1) * p ** 3
                 + (2 * 0.25 - 1) * p * p + 3 * p - 1, 0.0, DERIV.rho_cap)),
            (RadiusProblem(FunctionalKind.SQ_DERIV, 1, 1, lam=0.5),
             reference_bisect(
                 lambda p: 0.5 * p ** 4 + 0.0 * p ** 3 + 0.5 * p * p + 2 * p - 1,
                 0.0, SQ_DERIV.rho_cap))):
        assert sharpness_witness(problem).value > 1.0
        # n = m = 1 makes the returned radius equal to rho itself
        emp = empirical_radius(problem)
        assert abs(emp - family_root) < 5e-4
        assert abs(emp - radius_for(problem).radius) < 5e-4


def _exact_excess(problem, a, rho):
    """F - 1 for the witness family, in exact rational arithmetic."""
    a, rho, w = Fraction(a), Fraction(rho), Fraction(problem.weight)
    first = (rho + a) / (1 + a * rho)
    if problem.kind is FunctionalKind.CONVEX:
        value = w * first + (1 - w) * (a + (1 - a * a) * rho / (1 - a * rho))
    else:
        head = first if problem.kind is FunctionalKind.DERIV else first * first
        value = (head + (1 - a * a) * rho / (1 + a * rho) ** 2
                 + w * (1 - a * a) * a * rho * rho / (1 - a * rho))
    return value - 1


@pytest.mark.parametrize("problem", [
    RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=0.3),
    RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=0.02),
    RadiusProblem(FunctionalKind.SQ_DERIV, 1, 1, lam=0.5),
], ids=["convex", "deriv", "sq_deriv"])
def test_sharpness_witness_at_small_delta_is_real(problem):
    # delta = 1e-7 is still resolved by the a-grid's tail, and the excess is
    # positive in exact arithmetic, not only after rounding
    w = sharpness_witness(problem, delta=1e-7)
    assert w.value > 1.0
    assert _exact_excess(problem, w.a, w.rho) > 0


@pytest.mark.parametrize("problem, delta", [
    (RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=0.02), 1e-13),
    (RadiusProblem(FunctionalKind.SQ_DERIV, 1, 1, lam=0.5), 1e-14),
], ids=["deriv", "sq_deriv"])
def test_sharpness_witness_raises_when_no_grid_point_exceeds_one(problem, delta):
    # the grid sup is 1.0; off the grid, points near a = 1 round to
    # 1.0000000000000002, but their exact excess is about -1.1e-17
    with pytest.raises(WitnessNotFoundError, match="no witness"):
        sharpness_witness(problem, delta=delta)


@pytest.mark.parametrize("problem, delta", [
    (RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=1.0), 1e-3),
    (RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=1.0), 1e300),
], ids=["convex-t-1", "deriv-huge-delta"])
def test_sharpness_witness_refuses_rho_outside_the_domain(problem, delta):
    # the family (a - s)/(1 - a s) lives on |s| < 1, and |s| = rho there
    with pytest.raises(ValueError, match="outside the family's domain"):
        sharpness_witness(problem, delta=delta)


@pytest.mark.parametrize("problem", [
    RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=0.3),
    RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=1.0),
    RadiusProblem(FunctionalKind.SQ_DERIV, 1, 1, lam=0.5),
], ids=["convex", "deriv", "sq_deriv"])
def test_sharpness_witness_refuses_a_delta_that_leaves_rho_at_the_root(problem):
    # 1 + 1e-17 rounds to 1, so the search point would be the stated rho itself
    with pytest.raises(ValueError, match="too small to move rho"):
        sharpness_witness(problem, delta=1e-17)


def test_sharpness_witness_just_inside_the_domain():
    problem = RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=0.9)
    rho_root = radius_for(problem).rho_root
    w = sharpness_witness(problem, delta=0.999 / rho_root - 1.0)
    assert 0.998 < w.rho < 1.0 and w.value > 1.0


def test_empirical_radius_matches_certified_on_sharp_branches():
    configs = [
        RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=0.0),
        RadiusProblem(FunctionalKind.CONVEX, 2, 2, t=0.75),
        RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=0.5),
        RadiusProblem(FunctionalKind.DERIV, 2, 1, lam=1.0),
        RadiusProblem(FunctionalKind.SQ_DERIV, 1, 1, lam=1.0),
        RadiusProblem(FunctionalKind.SQ_DERIV, 3, 2, lam=2.0),
    ]
    for problem in configs:
        emp = empirical_radius(problem)
        cert = radius_for(problem)
        assert abs(emp - cert.radius) < 5e-4, (problem.kind, problem.weight)


def test_empirical_radius_validation():
    # weight-1 convex never crosses below rho = 1, so no bracket exists
    with pytest.raises(ValueError):
        empirical_radius(RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=1.0))


NAN = float("nan")
Z_SQUARED = TruncatedSeries(1, 2, {(2,): 0.5})  # vanishes to order 2


@pytest.mark.parametrize("call", [
    lambda: extremal_functional(Functional(DERIV, lam=1.0), 0.5, NAN),
    lambda: majorant_functional(Functional(DERIV, lam=1.0), 0.5, NAN),
    lambda: majorant_functional(Functional(CONVEX, t=0.5), 0.5, NAN),
    lambda: rogosinski_value(0.5, NAN),
    lambda: extremal_functional_from_series(
        Functional(DERIV, lam=1.0), ExtremalParams(0.5, 1, 1), NAN, max_degree=40),
    lambda: Direction((NAN, 0.5)),
    lambda: TruncatedSeries.constant(0.5, 1).bohr_majorant_sum(NAN),
    lambda: phi_psi_monotone(NAN, 0.1, 0.2),
    lambda: ExtremalParams(0.5, 1.5, 1),
    lambda: extremal_series(ExtremalParams(0.5, 2.0, 1), max_degree=4),
    lambda: SchwarzPowerMap(2, 2.5),
    lambda: TruncatedSeries(2, 3.5, {}),
    lambda: RadiusProblem(FunctionalKind.CONVEX, 2.0, 1, t=0.5),
    lambda: Direction.uniform(0),
    lambda: Direction.uniform(2.0),
    lambda: Direction.uniform(-1),
    lambda: verify_radius(RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=0.5),
                          50, 10, NAN),
    lambda: verify_radius(RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=0.5),
                          10.5, 10, 0.0),
    lambda: zero_multiplicity_bound_check(Z_SQUARED, NAN),
    lambda: zero_multiplicity_bound_check(Z_SQUARED, 1.5),
    lambda: zero_multiplicity_bound_check(Z_SQUARED, 1, samples=2.5),
    lambda: zero_multiplicity_bound_check(Z_SQUARED, 1, seed=1.5),
    lambda: zero_multiplicity_bound_check(Z_SQUARED, 1, seed=-1),
    lambda: TruncatedSeries.constant(0.5, 1).bohr_majorant_sum(0.1, k_min=-1),
    lambda: TruncatedSeries.constant(0.5, 1).bohr_majorant_sum(0.1, k_min="2"),
    lambda: Z_SQUARED.degree_slice(1.5),
    lambda: Z_SQUARED.degree_slice(-1),
    lambda: Z_SQUARED.degree_slice(NAN),
    lambda: Z_SQUARED.degree_slice(True),
    lambda: SchwarzPowerMap(2, 1).apply((0.1,)),
    lambda: TruncatedSeries.constant(1, 1) + TruncatedSeries.constant(1, 2),
], ids=["extremal-rho", "majorant-deriv-rho", "majorant-convex-rho",
        "rogosinski-rho", "series-rho", "direction", "majorant-sum-radius",
        "phi-psi-weight", "extremal-params-n", "series-float-n", "power-map-power",
        "series-max-degree", "problem-float-n", "uniform-direction-zero",
        "uniform-direction-float", "uniform-direction-negative",
        "verify-inflate-nan", "verify-float-grid", "zero-order-nan-k",
        "zero-order-float-k", "zero-order-float-samples", "zero-order-float-seed",
        "zero-order-negative-seed", "majorant-sum-negative-k-min",
        "majorant-sum-string-k-min", "degree-slice-float", "degree-slice-negative",
        "degree-slice-nan", "degree-slice-bool", "power-map-short-point",
        "series-add-n"])
def test_nan_and_non_integer_inputs_raise(call):
    # each of these returned a value (or a NaN, or raised TypeError) before its
    # gate was NaN-safe and took integers only; the last two are shape
    # checks that no other test reaches
    with pytest.raises(ValueError):
        call()


VERIFY_PROBLEMS = [
    RadiusProblem(FunctionalKind.CONVEX, 2, 1, t=0.3),
    RadiusProblem(FunctionalKind.DERIV, 1, 2, lam=1.0),
    RadiusProblem(FunctionalKind.SQ_DERIV, 3, 1, lam=2.0),
]


@pytest.mark.parametrize("problem", VERIFY_PROBLEMS[:2], ids=["convex", "deriv"])
def test_verify_radius_calls_the_majorant_once_per_grid_point(problem, monkeypatch):
    # the benchmark's traced self-check expects one majorant_functional call,
    # made through the module global, per verify grid point
    calls = 0
    real = extremal.majorant_functional

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)
    monkeypatch.setattr(extremal, "majorant_functional", counted)
    verify_radius(problem, 23, 11, 0.0)
    assert calls == 23 * 11


def test_bench_tracer_counts_one_majorant_call_per_verify_grid_point():
    # the traced benchmark wraps majorant_functional in every namespace that
    # bound it and checks its call count against the verify grid points
    root = Path(__file__).resolve().parent.parent
    script = (
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "from polybohr import FunctionalKind, RadiusProblem, verify_radius\n"
        "for kind, w in (('convex', {'t': 0.3}), ('deriv', {'lam': 1.0}),\n"
        "                ('sq_deriv', {'lam': 2.0})):\n"
        "    verify_radius(RadiusProblem(FunctionalKind(kind), 2, 2, **w), 23, 11, 0.0)\n"
        "print(tracer.calls['extremal.majorant_functional'])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 3 * 23 * 11


def test_hot_path_names_no_enum_member_lookup():
    # FunctionalKind.X costs about 150 ns per lookup on Python 3.11; the
    # per-point functions compare against the module's bound members
    for fn in (extremal._functional_value, extremal.majorant_functional):
        assert "FunctionalKind" not in fn.__code__.co_names


@pytest.mark.parametrize("problem", VERIFY_PROBLEMS,
                         ids=["convex", "deriv", "sq-deriv"])
def test_verify_radius_passes_at_the_radius_and_fails_the_control(problem):
    check = verify_radius(problem, 200, 50, 0.0)
    assert check.ok
    assert check.radius == radius_for(problem).radius
    assert check.rho_max == problem.n * check.radius ** problem.m
    assert check.max_value <= 1.0 + 1e-12 and check.min_margin >= -1e-12
    assert not check.below_violations and not check.dominance_violations
    # +1% past a sharp radius the family must exceed 1 somewhere on the grid
    control = verify_radius(problem, 200, 50, 0.01)
    assert not control.ok
    assert control.radius == check.radius
    assert control.max_value > 1.0 + 1e-12
    assert all(value > 1.0 + 1e-12 for _, _, value in control.below_violations)


def test_verify_radius_records_a_majorant_that_fails_to_dominate(monkeypatch):
    # a majorant of 0 lies below the family wherever the family is positive
    monkeypatch.setattr(extremal, "majorant_functional", lambda func, a, rho: 0.0)
    check = verify_radius(VERIFY_PROBLEMS[0], 23, 11, 0.0)
    assert not check.ok
    assert not check.below_violations
    assert check.dominance_violations
    for a, rho, margin in check.dominance_violations:
        assert margin < -1e-12
        assert margin == -extremal_functional(VERIFY_PROBLEMS[0], a, rho)


def test_witness_validation():
    f = Functional(CONVEX, t=0.5)
    with pytest.raises(ValueError):
        Witness(a=0.5, value=0.99, rho=0.4, functional=f, radius=0.3)
    w = Witness(a=0.5, value=1.001, rho=0.4, functional=f, radius=0.3)
    assert w.functional.kind is FunctionalKind.CONVEX


def test_witness_carries_the_stated_radius():
    problem = RadiusProblem(FunctionalKind.SQ_DERIV, 3, 2, lam=2.0)
    w = sharpness_witness(problem, delta=1e-2)
    assert w.radius == radius_for(problem).radius
    assert w.rho == (1.0 + 1e-2) * radius_for(problem).rho_root


def test_scalar_and_array_closed_forms_agree_bitwise():
    # one closed form serves scalars and arrays; x ** 2 on a Python float can
    # round differently from numpy's square, x * x cannot
    f = Functional(SQ_DERIV, lam=2.0)
    a, rho = 0.04, 0.51
    row = extremal._functional_value(f, np.array([a]), rho)
    assert extremal_functional(f, a, rho) == float(row[0])
    row = extremal._functional_value(f, np.array([a]), rho, 1.0)
    assert majorant_functional(f, a, rho) == float(row[0])
    rng = np.random.default_rng(7)
    for kind, w in (("convex", 0.3), ("deriv", 0.7), ("sq_deriv", 2.0)):
        f = Functional(FunctionalKind(kind), **{"t" if kind == "convex" else "lam": w})
        avals = rng.random(200)
        for rho in rng.random(5) * 0.4:
            fam = extremal._functional_value(f, avals, rho).tolist()
            maj = extremal._functional_value(f, avals, rho, 1.0).tolist()
            for x, y, z in zip(avals.tolist(), fam, maj):
                assert extremal_functional(f, x, rho) == y
                assert majorant_functional(f, x, rho) == z


def test_verify_radius_margin_past_the_cap():
    # +50% pushes rho past DERIV's cap sqrt(2) - 1, so the majorant is taken
    # at the clamped rho and the family row is recomputed there
    problem = RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=1.0)
    check = verify_radius(problem, 20, 12, 0.5)
    cap = FunctionalKind.DERIV.search_cap
    assert check.rho_max > cap
    margins = []
    for rho in np.linspace(0.0, check.rho_max, 12).tolist():
        rr = min(rho, cap)
        for a in np.linspace(0.0, 1.0, 20, endpoint=False).tolist():
            margins.append((a, rr, majorant_functional(problem, a, rr)
                            - extremal_functional(problem, a, rr)))
    assert check.min_margin == min(m for _, _, m in margins)
    assert check.dominance_violations == [list(v) for v in margins if v[2] < -1e-12]


# -- series route cross-check ----------------------------------------------------

def test_series_route_matches_closed_form_pinned():
    # the truncated-series evaluation of the functional agrees with the
    # closed form once the tail is negligible
    f = Functional(DERIV, lam=1.0)
    params = ExtremalParams(0.7, 2, 1)
    rho = 0.2
    closed = extremal_functional(f, 0.7, rho)
    series = extremal_functional_from_series(f, params, rho, max_degree=40)
    assert abs(series - closed) <= 1e-12


def test_series_route_matches_closed_form_sweep():
    cases = [
        (Functional(CONVEX, t=0.0), ExtremalParams(0.5, 1, 1), 0.3),
        (Functional(CONVEX, t=0.6), ExtremalParams(0.4, 3, 1), 0.15),
        (Functional(CONVEX, t=0.75), ExtremalParams(0.6, 2, 2), 0.25),
        (Functional(DERIV, lam=0.5), ExtremalParams(0.3, 2, 1), 0.25),
        (Functional(DERIV, lam=2.0), ExtremalParams(0.5, 2, 2), 0.2),
        (Functional(SQ_DERIV, lam=1.0), ExtremalParams(0.45, 3, 1), 0.2),
        (Functional(SQ_DERIV, lam=2.0), ExtremalParams(0.3, 1, 3), 0.3),
    ]
    for f, params, rho in cases:
        closed = extremal_functional(f, params.a, rho)
        series = extremal_functional_from_series(f, params, rho, max_degree=40)
        assert abs(series - closed) <= 1e-10, (f.kind, params.a, rho)


def rotated_route(func, params, rho, max_degree, u, rotate=True):
    """(functional value, derivative term) of the family rotated toward u.

    The rotated family multiplies each coefficient by
    prod_k e^(-i alpha_k arg u_k), so that d_u of it at the point
    z_k = r e^(i (pi + arg u_k) / m) carries sum_k |u_k| = 1 in full; the
    value is assembled as extremal_functional_from_series assembles it.
    rotate=False keeps the family unrotated.
    """
    n, m = params.n, params.m
    args = [cmath.phase(c) for c in u.components]
    f = extremal_series(params, max_degree)
    if rotate:
        f = TruncatedSeries(n, max_degree, {
            alpha: c * cmath.exp(-1j * sum(e * t for e, t in zip(alpha, args)))
            for alpha, c in f.coeffs.items()})
    omega = SchwarzPowerMap(n, m)
    g = f.compose_power_map(omega)
    r = (rho / n) ** (1.0 / m)
    z = tuple(r * cmath.exp(1j * (math.pi + t) / m) for t in args)
    w = omega.apply(z)
    first = abs(g.eval(z))
    second = abs(f.directional_derivative(u).eval(w)) * (n * max(abs(x) for x in w))
    head = first * first if func.kind is SQ_DERIV else first
    return head + second + func.lam * g.bohr_majorant_sum(r, k_min=2 * m), second


def seeded_directions(n, count, seed):
    """count complex directions with sum_k |u_k| = 1, drawn from seed."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = rng.uniform(0.05, 1.0, n)
        phase = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
        out.append(Direction(tuple((size / size.sum() * phase).tolist())))
    return out


@pytest.mark.parametrize("func", [Functional(DERIV, lam=1.0), Functional(SQ_DERIV, lam=2.0)],
                         ids=["deriv", "sq_deriv"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_rotated_family_attains_the_closed_form_along_every_direction(func, n, m):
    # the paper's sharpness holds for every unit-l1 direction u, not only the
    # uniform one: rotating the family toward u gives the same value
    a, rho, top = 0.6, 0.2, 16
    assert (a * rho) ** top < 1e-12
    closed = extremal_functional(func, a, rho)
    params = ExtremalParams(a, n, m)
    for u in seeded_directions(n, 6, seed=100 * n + m):
        value, _ = rotated_route(func, params, rho, top, u)
        assert abs(value - closed) <= 1e-10 * closed, u.components


def test_unrotated_family_has_no_derivative_along_a_difference_direction():
    # f_a depends on z_1 + z_2 only, so its derivative along (1/2, -1/2)
    # vanishes (up to rounding), while the rotated family keeps the full term
    func, a, rho, top = Functional(DERIV, lam=1.0), 0.6, 0.2, 16
    params, u = ExtremalParams(a, 2, 1), Direction((0.5, -0.5))
    _, plain = rotated_route(func, params, rho, top, u, rotate=False)
    value, rotated = rotated_route(func, params, rho, top, u)
    assert plain <= 1e-13
    assert rotated == pytest.approx((1 - a * a) * rho / (1 + a * rho) ** 2, rel=1e-10)
    assert value == pytest.approx(extremal_functional(func, a, rho), rel=1e-10)


# -- univariate shifted family -----------------------------------------------------

def test_rogosinski_value_forms():
    a, rho = 0.3, 0.2
    plain = (rho + a) / (1 + a * rho) + (1 - a * a) * rho / (1 - a * rho)
    assert abs(rogosinski_value(a, rho) - plain) < 1e-15
    squared = ((rho + a) / (1 + a * rho)) ** 2 + (1 - a * a) * rho / (1 - a * rho)
    assert abs(rogosinski_value(a, rho, squared=True) - squared) < 1e-15


def test_rogosinski_thresholds():
    # plain head: sqrt(5) - 2; squared head: 1/3
    assert abs(rogosinski_threshold() - (math.sqrt(5.0) - 2.0)) < 5e-4
    assert abs(rogosinski_threshold(squared=True) - 1 / 3) < 5e-4


# -- consistency between witness rho cap and radius brackets ------------------------

def test_radius_roots_inside_search_caps():
    assert radius_for(RadiusProblem(DERIV, 1, 1, lam=10.0)).rho_root < DERIV.rho_cap
    assert radius_for(RadiusProblem(SQ_DERIV, 1, 1, lam=10.0)).rho_root < SQ_DERIV.rho_cap
    root = radius_for(RadiusProblem(DERIV, 1, 1, lam=0.5)).rho_root
    assert 0 < root < DERIV.rho_cap


# -- numpy counts ---------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16])
def test_numpy_counts_give_plain_results(dtype):
    # every entry point keeps the plain int _check_count returns, so a numpy
    # count reaches no stored count and no result
    n, m, k, top = dtype(2), dtype(3), dtype(1), dtype(6)
    problem = RadiusProblem(CONVEX, n, m, t=0.5)
    params = ExtremalParams(0.5, n, m)
    linear = TruncatedSeries(n, top, {(1, 0): 0.5, (0, 1): 0.5})
    omega = SchwarzPowerMap(n, m)
    floats = [radius_for(problem).radius,
              verify_radius(problem, dtype(10), dtype(10), 0.0).rho_max,
              empirical_radius(problem),
              sharpness_witness(problem).radius,
              extremal_functional_from_series(problem, params, 0.2, top),
              zero_multiplicity_bound_check(linear, k, samples=dtype(50))]
    ints = [problem.n, problem.m, params.n, params.m, linear.n_vars, linear.max_degree,
            extremal_series(params, top).max_degree, omega.n_vars, omega.power,
            *next(multi_indices(n, top))]
    assert [type(x) for x in floats] == [float] * len(floats)
    assert [type(x) for x in ints] == [int] * len(ints)
    plain = RadiusProblem(CONVEX, 2, 3, t=0.5)
    assert floats[0] == radius_for(plain).radius
    assert floats[4] == extremal_functional_from_series(
        plain, ExtremalParams(0.5, 2, 3), 0.2, 6)
