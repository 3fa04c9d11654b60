"""Bound evaluator tests: sharp cases, equality cases, negative controls."""

import math

import numpy as np
import pytest

from polybohr import (TruncatedSeries, bounds, coefficient_bound_check,
                      derivative_bound, schwarz_pick_bound,
                      zero_multiplicity_bound_check)
from polybohr.mvseries import multi_indices


def embedded_mobius(a, n, max_degree):
    """(a - z_1)/(1 - a z_1) as an n-variable series: the equality case."""
    coeffs = {(0,) * n: a}
    for k in range(1, max_degree + 1):
        alpha = tuple(k if j == 0 else 0 for j in range(n))
        coeffs[alpha] = -(1 - a * a) * a ** (k - 1)
    return TruncatedSeries(n, max_degree, coeffs)


# -- growth bound ----------------------------------------------------------------

def test_schwarz_pick_bound_values():
    assert schwarz_pick_bound(0.5, 0.3) == pytest.approx(0.8 / 1.15, abs=1e-15)
    assert schwarz_pick_bound(0.0, 0.3) == 0.3
    assert schwarz_pick_bound(1.0, 0.3) == 1.0


def test_schwarz_pick_bound_monotone():
    grid = np.linspace(0.0, 0.99, 34)
    for a0 in grid:
        vals = [schwarz_pick_bound(a0, s) for s in grid]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))
    for s in grid:
        vals = [schwarz_pick_bound(a0, s) for a0 in grid]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


def test_schwarz_pick_bound_is_attained_by_mobius():
    # |f_a(-s)| = (a + s)/(1 + a s) for f_a(z) = (a - z)/(1 - a z)
    for a in (0.0, 0.3, 0.8):
        for s in (0.0, 0.2, 0.7):
            attained = abs((a + s) / (1 + a * s))
            assert attained == pytest.approx(schwarz_pick_bound(a, s), abs=1e-15)


def test_schwarz_pick_bound_range_errors():
    with pytest.raises(ValueError):
        schwarz_pick_bound(-0.1, 0.5)
    with pytest.raises(ValueError):
        schwarz_pick_bound(1.1, 0.5)
    with pytest.raises(ValueError):
        schwarz_pick_bound(0.5, 1.0)
    with pytest.raises(ValueError):
        schwarz_pick_bound(0.5, -0.2)


# -- derivative bound --------------------------------------------------------------

def test_derivative_bound_first_order_reduction_exact():
    # |alpha| = 1 collapses to (1 - a^2)/(1 - s^2), bit for bit
    for a in (0.0, 0.25, 0.8):
        for s in (0.0, 0.3, 0.9):
            assert derivative_bound(a, s, (1,)) == (1.0 - a * a) / (1.0 - s * s)
            assert derivative_bound(a, s, (0, 1, 0)) == (1.0 - a * a) / (1.0 - s * s)


def test_derivative_bound_counts_nonzero_entries():
    a, s = 0.4, 0.3
    base = (1.0 - a * a)
    # alpha = (2, 1, 0): degree 3, two nonzero entries, alpha! = 2
    expect = 2 * base * (1.0 + s) ** 1 / (1.0 - s * s) ** 3
    assert derivative_bound(a, s, (2, 1, 0)) == pytest.approx(expect, rel=1e-15)
    # alpha = (3, 0, 0): degree 3, one nonzero entry, alpha! = 6
    expect = 6 * base * (1.0 + s) ** 2 / (1.0 - s * s) ** 3
    assert derivative_bound(a, s, (3, 0, 0)) == pytest.approx(expect, rel=1e-15)
    # alpha = (1, 1, 1): degree 3, three nonzero entries, alpha! = 1
    expect = base / (1.0 - s * s) ** 3
    assert derivative_bound(a, s, (1, 1, 1)) == pytest.approx(expect, rel=1e-15)


def test_derivative_bound_equality_for_mobius_first_order():
    # the first-order bound is an equality along the aligned slice:
    # |f'(x)| = (1 - a^2)/(1 - a x)^2 = (1 - |f(x)|^2)/(1 - x^2) for real x
    for a in (0.2, 0.5, 0.9):
        for x in (-0.6, 0.0, 0.4, 0.7):
            fx = (a - x) / (1 - a * x)
            deriv = (1 - a * a) / (1 - a * x) ** 2
            bound = derivative_bound(abs(fx), abs(x), (1,))
            assert deriv == pytest.approx(bound, rel=1e-13)


def test_derivative_bound_dominates_series_derivatives():
    # second derivative of the Mobius map: |f''(x)| = 2a(1-a^2)/(1-ax)^3 at
    # real x in (0, 1); compare against the alpha = (2,) bound at s = x
    for a in (0.3, 0.6, 0.9):
        for x in (0.0, 0.2, 0.5):
            second = 2 * a * (1 - a * a) / (1 - a * x) ** 3
            fx = (a - x) / (1 - a * x)
            assert second <= derivative_bound(abs(fx), x, (2,)) + 1e-12


def test_derivative_bound_errors():
    with pytest.raises(ValueError):
        derivative_bound(0.5, 1.0, (1,))  # diverges at s = 1
    with pytest.raises(ValueError):
        derivative_bound(1.5, 0.5, (1,))
    with pytest.raises(ValueError):
        derivative_bound(0.5, 0.5, (0, 0))  # degree 0


# -- coefficient bound --------------------------------------------------------------

def test_coefficient_bound_mobius_grid_clean():
    # every |a_alpha| = (1 - a^2) a^(k-1) <= 1 - a^2, with equality at k = 1
    for a in np.arange(0.0, 0.99, 0.02):
        series = embedded_mobius(float(a), 2, 10)
        assert coefficient_bound_check(series) == []


def test_coefficient_bound_negative_control():
    a0 = 0.6
    bad = {(0, 0): a0, (1, 0): (1 - a0 * a0) + 0.01, (0, 1): 0.5 * (1 - a0 * a0)}
    series = TruncatedSeries(2, 2, bad)
    violations = coefficient_bound_check(series)
    assert violations == [(1, 0)]


def test_coefficient_bound_rejects_constant_above_one():
    with pytest.raises(ValueError):
        coefficient_bound_check(TruncatedSeries(1, 1, {(0,): 1.5}))


# -- zero-multiplicity bound -----------------------------------------------------------

def test_zero_multiplicity_monomials():
    for m in (1, 2, 3):
        series = TruncatedSeries(2, m, {(m, 0): 1.0})
        worst = zero_multiplicity_bound_check(series, m, samples=2000, seed=5)
        assert worst <= 1.0 + 1e-9
        assert worst > 0.5  # sup is 1, approached when |z_1| is the max


def test_zero_multiplicity_mixed_families():
    prod = TruncatedSeries(2, 2, {(1, 1): 1.0})
    assert zero_multiplicity_bound_check(prod, 2, samples=2000, seed=5) <= 1.0 + 1e-9
    mean = TruncatedSeries(2, 1, {(1, 0): 0.5, (0, 1): 0.5})
    assert zero_multiplicity_bound_check(mean, 1, samples=2000, seed=5) <= 1.0 + 1e-9


def test_zero_multiplicity_requires_vanishing_order():
    series = TruncatedSeries(1, 2, {(0,): 0.5, (2,): 0.5})
    with pytest.raises(ValueError):
        zero_multiplicity_bound_check(series, 1)
    with pytest.raises(ValueError):
        zero_multiplicity_bound_check(TruncatedSeries(1, 1, {(1,): 1.0}), 0)


def test_zero_multiplicity_seed_reproducible():
    series = TruncatedSeries(2, 2, {(1, 1): 1.0})
    w1 = zero_multiplicity_bound_check(series, 2, samples=500, seed=99)
    w2 = zero_multiplicity_bound_check(series, 2, samples=500, seed=99)
    assert w1 == w2


def per_sample_zero_order_check(series, k, samples, seed):
    """One draw and one eval per sample: the loop the batched check replaces."""
    rng = np.random.default_rng(seed)
    n = series.n_vars
    worst = 0.0
    for _ in range(samples):
        radii = rng.uniform(1e-6, 1.0 - 1e-12, size=n)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        z = tuple(r * complex(np.cos(t), np.sin(t)) for r, t in zip(radii, angles))
        ratio = abs(series.eval(z)) / float(np.max(radii)) ** k
        if ratio > worst:
            worst = ratio
    return worst


@pytest.mark.parametrize("block", [10_000, 7], ids=["default-block", "block-7"])
def test_zero_multiplicity_draws_points_as_a_per_sample_loop(block, monkeypatch):
    # same points in the same order, so the same worst ratio to the last bit,
    # wherever the sample blocks end
    monkeypatch.setattr(bounds, "_SAMPLE_BLOCK", block)
    cases = [(TruncatedSeries(3, 1, {(1, 0, 0): 0.25, (0, 1, 0): 0.5, (0, 0, 1): 0.25j}), 1, 50, 3),
             (TruncatedSeries(2, 2, {(1, 1): 1.0}), 2, 200, 99),
             (TruncatedSeries(1, 3, {(2,): 0.5, (3,): -0.5}), 2, 1, 0)]
    for series, k, samples, seed in cases:
        assert (repr(zero_multiplicity_bound_check(series, k, samples=samples, seed=seed))
                == repr(per_sample_zero_order_check(series, k, samples, seed)))


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True], ids=["negative", "float", "string", "bool"])
def test_zero_multiplicity_refuses_a_seed_that_is_not_a_count(seed):
    # -1 and 1.5 used to reach numpy, which raised its own ValueError / TypeError
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        zero_multiplicity_bound_check(TruncatedSeries(1, 1, {(1,): 1.0}), 1, samples=4, seed=seed)


# -- phi/psi monotonicity ----------------------------------------------------------------
# phi(x) = x + A (1 - x^2) and psi(x) = x^2 + A (1 - x^2); the exact statement
# (nondecreasing on [0, 1] exactly for A <= 1/2 and A <= 1) is proved in
# tests/test_majorant_algebra.py.  These are float spot checks of it.

def _phi(A, x):
    return x + A * (1 - x * x)


def _psi(A, x):
    return x * x + A * (1 - x * x)


def test_phi_psi_spot_values():
    assert _phi(0.5, 0.2) <= _phi(0.5, 0.9)
    assert _psi(1.0, 0.2) <= _psi(1.0, 0.9)
    # at the largest weights the maps still do not decrease up to x = 1
    assert _phi(0.5, 0.95) <= _phi(0.5, 1.0)
    assert _psi(1.0, 0.95) <= _psi(1.0, 1.0)


def test_phi_fails_beyond_half_by_construction():
    # at A = 0.6 the map x + A(1 - x^2) genuinely decreases near x = 1,
    # which is why the phi weight is capped at 1/2
    A = 0.6
    assert _phi(A, 0.95) > _phi(A, 1.0)


def test_multi_indices_helper_available():
    # the bounds tests reuse the generator; pin its contract here too
    assert len(list(multi_indices(3, 4))) == math.comb(6, 2)
